-- fanout: the tracked Section 7.3 shape. 12 unfiltered equijoin queries,
-- windows 2.5 s, 5 s, ..., 30 s. Shared by the sharded and churn workloads.
Q1: SELECT * FROM A JOIN B ON A.key = B.key WINDOW 2500 ms;
Q2: SELECT * FROM A JOIN B ON A.key = B.key WINDOW 5000 ms;
Q3: SELECT * FROM A JOIN B ON A.key = B.key WINDOW 7500 ms;
Q4: SELECT * FROM A JOIN B ON A.key = B.key WINDOW 10000 ms;
Q5: SELECT * FROM A JOIN B ON A.key = B.key WINDOW 12500 ms;
Q6: SELECT * FROM A JOIN B ON A.key = B.key WINDOW 15000 ms;
Q7: SELECT * FROM A JOIN B ON A.key = B.key WINDOW 17500 ms;
Q8: SELECT * FROM A JOIN B ON A.key = B.key WINDOW 20000 ms;
Q9: SELECT * FROM A JOIN B ON A.key = B.key WINDOW 22500 ms;
Q10: SELECT * FROM A JOIN B ON A.key = B.key WINDOW 25000 ms;
Q11: SELECT * FROM A JOIN B ON A.key = B.key WINDOW 27500 ms;
Q12: SELECT * FROM A JOIN B ON A.key = B.key WINDOW 30000 ms;
