"""Set-up probe: imports qchardy, numpy and scipy, builds the given catalog
disc maps (boundary-map validation included), then prints ``ready``.

The benchmark times this process from its start to the ``ready`` line:
    python3 bench/setup_probe.py thm2_sqrt power:2
"""

import sys
from pathlib import Path


def main(map_specs):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import numpy  # noqa: F401
    import scipy  # noqa: F401

    import qchardy.cli  # noqa: F401
    from qchardy.extension import make_disc_map

    for spec in map_specs:
        make_disc_map(spec)
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
