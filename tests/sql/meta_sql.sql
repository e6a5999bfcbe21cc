-- The meta commands that duplicate SQL run as that SQL: this script
-- prints the same in process and over --connect (CI runs it both ways
-- with --continue-on-error and diffs the outputs, timings aside).
CREATE TABLE meta_t (x INT, ts INT, te INT) PERIOD (ts, te);
INSERT INTO meta_t VALUES (1, 0, 5), (2, 3, 9);
.tables
.explain SEQ VT (SELECT count(*) AS c FROM meta_t)
.kill 999999
.timeout 250
.timeout
.slow off
.slow
.verify on
SEQ VT (SELECT count(*) AS c FROM meta_t);
-- Only .explain carries user text into SQL, and only one statement of it:
-- both lines below are refused and meta_t stays.
.explain SELECT x FROM meta_t; DROP TABLE meta_t
.kill 1); DROP TABLE meta_t; --
.tables
