-- Persistence smoke, part 2 (run by CI after tests/sql/smoke.sql was
-- executed with --db DIR and the process exited):
--
--   snapshot_db --db DIR --verify --script tests/sql/restart_check.sql
--
-- Recovery must rebuild the exact pre-exit state: every query below runs
-- on the recovered catalog with the indexed-vs-naive cross-check on. The
-- script writes no file: CI appends a `.dump FILE` of its own leg and
-- diffs FILE against the dump of an uninterrupted in-memory run of
-- smoke.sql.

.verify on
.tables

-- The smoke script's final state: works mutated (Sam -> NS, Eve deleted,
-- Pam added), early dropped.
SEQ VT (SELECT count(*) AS cnt FROM works WHERE skill = 'SP');
SEQ VT (SELECT skill, count(*) AS c FROM works GROUP BY skill);
SEQ VT AS OF 9 (SELECT count(*) AS cnt FROM works);
SEQ VT (SELECT skill FROM assign EXCEPT ALL SELECT skill FROM works);

-- Explicit checkpoint: the recovered catalog becomes the recovery source.
.index
.checkpoint
