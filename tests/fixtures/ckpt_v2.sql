-- The history of the format-2 fixture in ckpt_v2/ (see README.md): a
-- build that wrote checkpoint format 2 ran this script with
-- `snapshot_db --db ckpt_v2 --checkpoint-every 0`. Opening ckpt_v2/ must
-- recover exactly the state of this script run in memory.

-- A period table whose TEXT columns hold a few strings that recur away
-- from their equal neighbours, as a registry's type and status columns do.
CREATE TABLE registry (id INT, object_type TEXT, status TEXT, ts INT, te INT) PERIOD (ts, te);
INSERT INTO registry VALUES
  (1, 'attribute_def', 'active', 0, 10), (2, 'verb_contract', 'draft', 0, 4),
  (3, 'taxonomy_node', 'active', 2, 9), (4, 'attribute_def', 'retired', 1, 3),
  (5, 'view_def', 'deprecated', 5, 12), (6, 'verb_contract', 'active', 4, 20),
  (7, 'attribute_def', 'draft', 3, 6), (8, 'taxonomy_node', 'retired', 6, 8),
  (9, 'view_def', 'active', 0, 15), (10, 'attribute_def', 'active', 7, 11),
  (11, 'verb_contract', 'deprecated', 9, 14), (12, 'taxonomy_node', 'draft', 1, 2),
  (13, 'view_def', 'retired', 2, 18), (14, 'attribute_def', 'active', 10, 16),
  (15, 'verb_contract', 'draft', 11, 13), (16, 'taxonomy_node', 'active', 12, 19);
UPDATE registry SET status = 'retired' WHERE id = 6;

-- A plain table with NULLs and empty strings beside ordinary ones.
CREATE TABLE notes (k INT, body TEXT, tag TEXT);
INSERT INTO notes VALUES
  (1, '', 'a'), (2, NULL, 'b'), (3, 'žluťoučký kůň', NULL), (4, '', ''),
  (5, NULL, NULL), (6, 'x', 'a');

.checkpoint
