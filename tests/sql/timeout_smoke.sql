-- CI cancellation smoke (run with --timeout-ms 100 --continue-on-error):
-- a deliberately slow self-join is cooperatively cancelled by the
-- statement timeout, the session stays usable afterwards, the timeout
-- is counted, and the activity plane answers from plain SQL throughout.
CREATE TABLE cancel_ci (x INT, ts INT, te INT) PERIOD (ts, te);
INSERT INTO cancel_ci VALUES (1, 0, 100), (2, 0, 100), (3, 0, 100), (4, 0, 100), (5, 0, 100), (6, 0, 100), (7, 0, 100), (8, 0, 100), (9, 0, 100), (10, 0, 100), (11, 0, 100), (12, 0, 100), (13, 0, 100), (14, 0, 100), (15, 0, 100), (16, 0, 100);
-- Double the table until the self-join below far exceeds the timeout.
INSERT INTO cancel_ci SELECT x, ts, te FROM cancel_ci;
INSERT INTO cancel_ci SELECT x, ts, te FROM cancel_ci;
INSERT INTO cancel_ci SELECT x, ts, te FROM cancel_ci;
INSERT INTO cancel_ci SELECT x, ts, te FROM cancel_ci;
INSERT INTO cancel_ci SELECT x, ts, te FROM cancel_ci;
INSERT INTO cancel_ci SELECT x, ts, te FROM cancel_ci;
INSERT INTO cancel_ci SELECT x, ts, te FROM cancel_ci;
INSERT INTO cancel_ci SELECT x, ts, te FROM cancel_ci;
-- A statement observes itself live in the activity view.
SELECT state, statement FROM snapshot_stat_activity;
.activity
-- ~16.7M join pairs through the nested-loop fallback: cancelled at a
-- batch boundary by the statement timeout long before it finishes.
SELECT count(*) AS c FROM cancel_ci a JOIN cancel_ci b ON a.x <> b.x;
-- The session is immediately usable again after the cancellation.
SELECT count(*) AS survivors FROM cancel_ci;
-- And the timeout was counted (the WHERE clause means this row only
-- prints when the counter actually moved).
SELECT name, value FROM snapshot_stat_metrics WHERE name = 'statement_timeouts_total' AND value > 0;
-- An ordinary error whose text merely echoes the words "statement
-- cancelled" is not a cancellation: the open transaction stays open and
-- the COMMIT below publishes its insert (CI greps for the COMMIT line).
BEGIN;
INSERT INTO cancel_ci VALUES (2, 0, 10);
SET max_result_rows = 'statement cancelled';
COMMIT;
