-- snapshot_db smoke script (run by CI):
-- create a period table, populate it, index it, run SEQ VT queries, mutate
-- the table, and re-run the queries. With .verify on, every query is
-- executed on both the indexed and the naive route and the shell fails on
-- any divergence — proving version-based index invalidation end-to-end.

.verify on

CREATE TABLE works (name TEXT, skill TEXT, ts INT, te INT) PERIOD (ts, te);
CREATE TABLE assign (mach TEXT, skill TEXT, ts INT, te INT) PERIOD (ts, te);

INSERT INTO works VALUES
  ('Ann', 'SP', 3, 10),
  ('Joe', 'NS', 8, 16),
  ('Sam', 'SP', 8, 16),
  ('Ann', 'SP', 18, 20);
INSERT INTO assign VALUES
  ('M1', 'SP', 3, 12),
  ('M2', 'SP', 6, 14),
  ('M3', 'NS', 3, 16);

.tables
.index

-- Figure 1b: on-duty SP workers per moment.
SEQ VT (SELECT count(*) AS cnt FROM works WHERE skill = 'SP');

-- Figure 1c: skills required but not present, per moment.
SEQ VT (SELECT skill FROM assign EXCEPT ALL SELECT skill FROM works);

.explain SEQ VT (SELECT count(*) AS cnt FROM works WHERE skill = 'SP')

-- Same plan with actual per-operator row counts, calls, and timings.
EXPLAIN ANALYZE SEQ VT (SELECT count(*) AS cnt FROM works WHERE skill = 'SP');

-- Point-in-time (timeslice pushdown) and range-restricted windows.
SEQ VT AS OF 9 (SELECT count(*) AS cnt FROM works WHERE skill = 'SP');
SEQ VT BETWEEN 5 AND 12 (SELECT skill, count(*) AS c FROM works GROUP BY skill);

-- A two-table snapshot join: the Join node emits REWR's projection
-- (data columns plus the intersected period) itself — no Project above it.
EXPLAIN ANALYZE SEQ VT (SELECT w.name, a.mach FROM works w JOIN assign a ON w.skill = a.skill);

-- Cross-type equi-join: INT = DOUBLE compares numerically on the hash
-- route too (2 meets 2.0, not 2.5) — its table only nominates candidates,
-- the join condition decides.
CREATE TABLE ints (x INT, ts INT, te INT) PERIOD (ts, te);
CREATE TABLE doubles (y DOUBLE, ts INT, te INT) PERIOD (ts, te);
INSERT INTO ints VALUES (2, 0, 10);
INSERT INTO doubles VALUES (2.0, 5, 15), (2.5, 5, 15);
SELECT i.x, d.y FROM ints i JOIN doubles d ON i.x = d.y;
SEQ VT (SELECT i.x, d.y FROM ints i JOIN doubles d ON i.x = d.y);
DROP TABLE ints;
DROP TABLE doubles;

-- The fused aggregate and bag difference emit the coalesced encoding
-- themselves: neither plan has a Coalesce line.
EXPLAIN SEQ VT (SELECT skill, count(*) AS c FROM works GROUP BY skill);
EXPLAIN SEQ VT (SELECT skill FROM assign EXCEPT ALL SELECT skill FROM works);

-- A sequenced DOUBLE sum is exact, so it never drifts from its own
-- snapshots: [5, 10) reports 0.4, as AS OF 6 does (adding 0.2 and taking
-- it away again used to leave 0.4000000000000001 behind).
CREATE TABLE d (y DOUBLE, ts INT, te INT) PERIOD (ts, te);
INSERT INTO d VALUES (0.1, 0, 10), (0.2, 0, 5), (0.3, 5, 10), (0.7, 2, 3);
SEQ VT (SELECT sum(y) AS total FROM d);
SEQ VT AS OF 1 (SELECT sum(y) AS total FROM d);
SEQ VT AS OF 4 (SELECT sum(y) AS total FROM d);
SEQ VT AS OF 6 (SELECT sum(y) AS total FROM d);
DROP TABLE d;

-- A WHERE over a join is the join's condition (one Join node, no Filter),
-- and a LIKE filter walks its pattern without decoding it per row.
EXPLAIN SEQ VT (SELECT w.name, a.mach FROM works w JOIN assign a ON w.skill = a.skill WHERE a.mach <> 'M2');
SEQ VT (SELECT w.name, a.mach FROM works w JOIN assign a ON w.skill = a.skill WHERE a.mach <> 'M2');
SEQ VT (SELECT name, skill FROM works WHERE name LIKE '_a%');

-- INT arithmetic is checked: a result outside i64 is NULL, as x / 0 is —
-- not a wrapped number, and not a panic that takes the connection with it.
-- A snapshot sum passing through the edge wraps and comes back exact.
CREATE TABLE edge (a INT, ts INT, te INT) PERIOD (ts, te);
INSERT INTO edge VALUES (9223372036854775807, 0, 10), (9223372036854775807, 5, 15);
SEQ VT (SELECT (0 - a - 1) / (0 - 1) AS q FROM edge);
SEQ VT (SELECT a + 1 AS inc FROM edge);
SEQ VT (SELECT a * 2 AS dbl FROM edge);
SEQ VT (SELECT sum(a) AS total FROM edge);
DROP TABLE edge;

-- Mutate: appends take the incremental index path...
INSERT INTO works VALUES ('Eve', 'SP', 0, 2), ('Pam', 'SP', 12, 19);
.index
SEQ VT (SELECT count(*) AS cnt FROM works WHERE skill = 'SP');

-- ...and non-sequenced DELETE/UPDATE force a full rebuild.
UPDATE works SET skill = 'NS' WHERE name = 'Sam';
DELETE FROM works WHERE te <= 2;
.index
SEQ VT (SELECT count(*) AS cnt FROM works WHERE skill = 'SP');

-- A coalesce over the bare scan: the rebuilt index builds its coalescing
-- accelerator here, on first use, not at the rebuild.
SEQ VT (SELECT name, skill FROM works);

-- Derived archive table via INSERT ... SELECT.
CREATE TABLE early (name TEXT, skill TEXT, ts INT, te INT) PERIOD (ts, te);
INSERT INTO early SELECT * FROM works WHERE ts < 10;
SELECT name, skill FROM early ORDER BY name;

DROP TABLE early;

-- Transactions: a rolled-back block leaves no trace (in memory or in the
-- WAL), a committed block publishes atomically as one commit unit.
BEGIN;
INSERT INTO works VALUES ('Zed', 'SP', 1, 6);
DELETE FROM works WHERE name = 'Ann';
SEQ VT (SELECT count(*) AS cnt FROM works WHERE skill = 'SP');
ROLLBACK;
SEQ VT (SELECT count(*) AS cnt FROM works WHERE skill = 'SP');

BEGIN;
INSERT INTO works VALUES ('Kim', 'SP', 2, 7);
UPDATE works SET te = te + 1 WHERE name = 'Kim';
COMMIT;
SEQ VT (SELECT count(*) AS cnt FROM works WHERE skill = 'SP');

-- Session options: SET and the meta commands read and write one option set.
SET statement_timeout = 60000;
.timeout
SET slow_query_ms = 60000;
.slow
SET statement_timeout = off;
SET slow_query_ms = off;

.parallel 4 SEQ VT (SELECT skill, count(*) AS c FROM works GROUP BY skill)
.tables
