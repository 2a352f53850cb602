"""A fixed job that measures how fast the machine runs Python right now.

It uses nothing from ropa_dpv.  Its work resembles the program's own: CSV
reading and writing, regular expressions, grouping into dicts and a tight
interpreted loop over the groups.  The benchmark runs it between commands
and scales the commands' times by it (see ``run.py``).
"""

import csv
import io
import re

rows = [[f"r{i // 37}", f"concept-{i % 43}", str(i % 3), "TEXT", f'value; {i} "q"'] for i in range(12000)]
text = io.StringIO()
csv.writer(text, lineterminator="\n").writerows(rows)
pattern = re.compile(r"[A-Za-z0-9._~-]+\Z")
cells = {}
for record_id, concept_id, index, kind, value in csv.reader(io.StringIO(text.getvalue())):
    if pattern.fullmatch(record_id):
        cells.setdefault((record_id, concept_id), []).append((int(index), kind, value))
found = 0
for wanted in range(0, 324, 9):
    wanted = f"r{wanted}"
    for (record_id, _), values in cells.items():
        if record_id != wanted:
            continue
        found += len(values)
out = io.StringIO()
writer = csv.writer(out, lineterminator="\n")
for (record_id, concept_id), values in cells.items():
    writer.writerow([record_id, concept_id, ";".join(v.replace(";", "\\;") for _, _, v in values)])
assert found and out.getvalue()
