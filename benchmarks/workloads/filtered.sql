-- filtered: 24 equijoin queries, windows 0.5 s ... 11 s plus 30 s and 40 s;
-- two of every three carry a nested threshold selection on A.value
-- (selectivity falling 0.93 -> 0.14; thresholds are multiples of 1/128 so
-- they are exact in binary floating point).
Q1: SELECT * FROM A JOIN B ON A.key = B.key WINDOW 500 ms;
Q2: SELECT * FROM A JOIN B ON A.key = B.key WHERE A.value >= 0.0703125 WINDOW 1000 ms;
Q3: SELECT * FROM A JOIN B ON A.key = B.key WHERE A.value >= 0.125 WINDOW 1500 ms;
Q4: SELECT * FROM A JOIN B ON A.key = B.key WINDOW 2000 ms;
Q5: SELECT * FROM A JOIN B ON A.key = B.key WHERE A.value >= 0.171875 WINDOW 2500 ms;
Q6: SELECT * FROM A JOIN B ON A.key = B.key WHERE A.value >= 0.2265625 WINDOW 3000 ms;
Q7: SELECT * FROM A JOIN B ON A.key = B.key WINDOW 3500 ms;
Q8: SELECT * FROM A JOIN B ON A.key = B.key WHERE A.value >= 0.28125 WINDOW 4000 ms;
Q9: SELECT * FROM A JOIN B ON A.key = B.key WHERE A.value >= 0.3359375 WINDOW 4500 ms;
Q10: SELECT * FROM A JOIN B ON A.key = B.key WINDOW 5000 ms;
Q11: SELECT * FROM A JOIN B ON A.key = B.key WHERE A.value >= 0.3828125 WINDOW 5500 ms;
Q12: SELECT * FROM A JOIN B ON A.key = B.key WHERE A.value >= 0.4375 WINDOW 6000 ms;
Q13: SELECT * FROM A JOIN B ON A.key = B.key WINDOW 6500 ms;
Q14: SELECT * FROM A JOIN B ON A.key = B.key WHERE A.value >= 0.4921875 WINDOW 7000 ms;
Q15: SELECT * FROM A JOIN B ON A.key = B.key WHERE A.value >= 0.546875 WINDOW 7500 ms;
Q16: SELECT * FROM A JOIN B ON A.key = B.key WINDOW 8000 ms;
Q17: SELECT * FROM A JOIN B ON A.key = B.key WHERE A.value >= 0.59375 WINDOW 8500 ms;
Q18: SELECT * FROM A JOIN B ON A.key = B.key WHERE A.value >= 0.6484375 WINDOW 9000 ms;
Q19: SELECT * FROM A JOIN B ON A.key = B.key WINDOW 9500 ms;
Q20: SELECT * FROM A JOIN B ON A.key = B.key WHERE A.value >= 0.703125 WINDOW 10000 ms;
Q21: SELECT * FROM A JOIN B ON A.key = B.key WHERE A.value >= 0.7578125 WINDOW 10500 ms;
Q22: SELECT * FROM A JOIN B ON A.key = B.key WINDOW 11000 ms;
Q23: SELECT * FROM A JOIN B ON A.key = B.key WHERE A.value >= 0.8046875 WINDOW 30000 ms;
Q24: SELECT * FROM A JOIN B ON A.key = B.key WHERE A.value >= 0.859375 WINDOW 40000 ms;
