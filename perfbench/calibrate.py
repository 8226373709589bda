"""Fixed pure-Python work that measures how fast the machine is right now.

`run.py` runs this script in a fresh interpreter before and after every
measured child and divides the child's wall time by the mean of the two.
On a shared machine the speed of a core can change by half for tens of
seconds at a time; the ratio cancels that, where the raw time cannot.
The work (dict updates, sorting strings) resembles shiftlab's hot loops
but imports nothing from it, so a change to shiftlab cannot move it.
"""

table = {}
for i in range(150_000):
    table[i & 1023] = table.get(i & 1023, 0) + i
words = sorted(str(i) for i in range(40_000))
