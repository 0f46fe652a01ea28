import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_tour_runs():
    # the one python block of the README, run as it stands: a stale name or
    # call in the public surface it shows fails here
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text("utf-8"),
                        re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
