SELECT COUNT(*) FROM emp;
SELECT COUNT(*) FROM dept;
BEGIN;
INSERT INTO dept VALUES (999, 'ci', 'CI');
ROLLBACK;
SELECT COUNT(*) FROM dept;
OUT OF xdept AS (SELECT * FROM dept WHERE loc = 'ARC'),
       xemp AS emp,
       employment AS (RELATE xdept VIA EMPLOYS, xemp WHERE xdept.dno = xemp.edno)
TAKE *;
-- the same CO again: this connection now holds it, so unchanged chunks
-- ship as same-run frames; the client must rebuild the same stream
OUT OF xdept AS (SELECT * FROM dept WHERE loc = 'ARC'),
       xemp AS emp,
       employment AS (RELATE xdept VIA EMPLOYS, xemp WHERE xdept.dno = xemp.edno)
TAKE *;
