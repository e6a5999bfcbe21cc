-- Scripts that fail mean the same in a local shell and over --connect
-- (CI "Server smoke" diffs the two outputs). Each buffer below is one
-- script: it is parsed whole before any statement runs, and a failure
-- stops it after the results of the statements before it.

-- A syntax error in the last statement: nothing runs, so se_one does not
-- exist afterwards.
CREATE TABLE se_one (x INT); INSERT INTO se_one VALUES (1); SELEC x FROM se_one;
SELECT count(*) AS n FROM se_one;

-- A run-time failure in the 3rd of 4 statements: the first two ran and
-- report, the 4th never ran (2 rows).
CREATE TABLE se_two (x INT); INSERT INTO se_two VALUES (1), (2); INSERT INTO se_missing VALUES (3); INSERT INTO se_two VALUES (4);
SELECT count(*) AS n FROM se_two;
