-- probe: 4 unfiltered equijoin queries over large windows and a wide key
-- domain, so purge and probe dominate and the output path is nearly idle.
Q1: SELECT * FROM A JOIN B ON A.key = B.key WINDOW 10000 ms;
Q2: SELECT * FROM A JOIN B ON A.key = B.key WINDOW 20000 ms;
Q3: SELECT * FROM A JOIN B ON A.key = B.key WINDOW 40000 ms;
Q4: SELECT * FROM A JOIN B ON A.key = B.key WINDOW 80000 ms;
