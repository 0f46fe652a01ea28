"""The import footprint of the maxilat command line, in a fresh interpreter.

    python -E -S tests/import_probe.py <dir>

<dir> is the directory that holds the maxilat package: src in a checkout,
the site-packages directory of an installation.  -S keeps `site`, and
whatever its .pth files import, out of the modules counted.

The probe imports maxilat.cli and then reads a cone document, whose
rational value "1/2" loads fractions.  It prints a JSON report: the
package file, the heavy modules the import loaded, and the modules the
cone document loaded after it.  It exits 1 when the import loads a heavy
module, or when the cone document does not load fractions, which would
mean that the probe cannot see a lazy import.
"""

import json
import sys

# OpenSSL's libcrypto (through hashlib), the decimal stack (through
# fractions), and importlib.resources with zipfile, tempfile and pathlib
HEAVY = ("_hashlib", "hashlib", "fractions", "decimal", "importlib.resources")

DIAMOND_CONE = {
    "source": {"elements": ["0", "a", "b", "1"],
               "covers": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]]},
    "values": {"0": 0, "a": "1/2", "b": 1, "1": 1},
}


def main(package_dir):
    sys.path.insert(0, package_dir)
    import maxilat.cli
    imported = set(sys.modules)
    maxilat.io.map_from_dict(DIAMOND_CONE)
    report = {"package": maxilat.__file__,
              "loaded": [name for name in HEAVY if name in imported],
              "cone_loads": sorted(set(sys.modules) - imported)}
    print(json.dumps(report, indent=1))
    return 1 if report["loaded"] or "fractions" not in report["cone_loads"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
