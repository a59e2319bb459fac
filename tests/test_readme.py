"""The README's library example runs as printed."""

import re
from pathlib import Path

import numpy as np

from lipext import locality_radius

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    text = README.read_text()
    block = re.search(r"^## Library\n+```python\n(.*?)^```", text, re.M | re.S).group(1)
    state = np.random.get_state()
    np.random.seed(0)       # the example draws its cloud from numpy's global generator
    scope = {}
    try:
        exec(compile(block, f"{README}:Library", "exec"), scope)
    finally:
        np.random.set_state(state)
    inst, schedule = scope["inst"], scope["schedule"]
    assert scope["report"].passed and len(scope["field"].values) == inst.n
    k, r = locality_radius(schedule, 0.2, 0.1, inst.lipschitz_L)    # deep enough, as documented
    assert r == schedule.eps_at(k - 2)
