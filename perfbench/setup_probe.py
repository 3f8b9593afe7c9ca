"""One cold set-up in a fresh interpreter: import totipm, then parse every
instance document.

Usage: python3 setup_probe.py SRC_DIR < documents.json

SRC_DIR is the directory holding the ``totipm`` package; stdin is a JSON
list of instance documents.  Prints ``{"import_s": ..., "parse_s": ...}``.
"""

import json
import sys
import time


def main() -> int:
    src_dir = sys.argv[1]
    documents = json.loads(sys.stdin.read())
    started = time.perf_counter()
    sys.path.insert(0, src_dir)
    from totipm.instances import parse_instance

    imported = time.perf_counter()
    for doc in documents:
        parse_instance(doc)
    parsed = time.perf_counter()
    print(json.dumps({"import_s": imported - started, "parse_s": parsed - imported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
