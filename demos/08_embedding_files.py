"""Moving embeddings in and out: the MMEB container and CSV.

Real encoder embeddings can be dumped by any external tool into either
format and analyzed with the same pipeline as the synthetic worlds.
"""

import os
import tempfile

import numpy as np

from gaplab import PairedEmbeddings, group_pairs, group_statistics
from gaplab import export, ingest, l2_normalize_rows

rng = np.random.default_rng(0)
y = l2_normalize_rows(rng.standard_normal((500, 32))).values
gap = np.zeros(32)
gap[0] = 0.5
x = y + gap + 0.02 * rng.standard_normal((500, 32))

with tempfile.TemporaryDirectory(prefix="gaplab-demo-") as workdir:
    x_path = os.path.join(workdir, "image.mmeb")
    y_path = os.path.join(workdir, "text.mmeb")
    export(x, x_path, "mmeb")
    export(y, y_path, "mmeb")
    print(f"wrote {os.path.getsize(x_path)} bytes per modality to {workdir}")

    pairs = PairedEmbeddings(x=ingest(x_path, "mmeb"), y=ingest(y_path, "mmeb"))
    report = group_statistics(group_pairs(pairs, group_size=100, seed=0), seed=0)
    for name, mean, std in report.rows():
        print(f"  {name:<20}{mean:>9.4f} +- {std:.4f}")
    print("(storage is 32-bit; the 0.5 gap survives the round trip)")

    csv_path = os.path.join(workdir, "image.csv")
    export(ingest(x_path, "mmeb"), csv_path, "csv")
    with open(csv_path) as fh:
        first = fh.readline().split(",")[0]
    print(f"converted to CSV: {os.path.getsize(csv_path)} bytes, first cell {first}")
