"""Print src/intraport/_ziggurat.py, numpy's standard-normal ziggurat table
as intraport.eavesdrop.derive_ziggurat_table reads it off the installed
numpy.

    PYTHONPATH=src python tools/ziggurat_table.py > src/intraport/_ziggurat.py
"""

import numpy as np

from intraport.eavesdrop import derive_ziggurat_table

# One string, not a tuple of 512 literals, which took 2 ms to compile on
# each import where no bytecode is cached (PYTHONDONTWRITEBYTECODE).
HEADER = '''"""numpy's standard-normal ziggurat table (numpy {version}): one line per
layer idx 0..255, its w (wi_double, as a hex float) and bound (ki_double).
A word of layer idx and magnitude rabs < bound draws +-rabs * w alone.

Written by tools/ziggurat_table.py; do not edit.
"""

ZIGGURAT = """
'''


def main() -> None:
    print(HEADER.format(version=np.__version__), end="")
    for w, bound in derive_ziggurat_table():
        print(f"{w.hex()} {bound:#x}")
    print('"""')


if __name__ == "__main__":
    main()
