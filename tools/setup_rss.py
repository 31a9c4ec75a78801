"""Print the wall time and peak RSS of the multiscale ball set-up on a SIDE^2 lattice.

The set-up of the `multiscale-thick` workload at any size: the open balls of
radius 4.1 cells around every 4th cell, and thick balls twice, four and eight
times as wide from `enumerate_thick` (grid pitch a quarter radius), each
netted at epsilon = 0.5, with every net's table.  Run from a checkout:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tools/setup_rss.py 256
"""

import resource
import sys
import time

from scanlab.clusters import ThickParams, enumerate_thick
from scanlab.metric import build_net
from scanlab.network import ball_nodes, make_lattice, rescale_lattice


def main(side: int) -> None:
    start = time.perf_counter()
    lat = rescale_lattice(make_lattice(2, side))
    r = 4.1 / side
    centers = [((x + 0.5) / side, (y + 0.5) / side) for x in range(0, side, 4) for y in range(0, side, 4)]
    nets = [build_net([b for b in (ball_nodes(lat, c, r) for c in centers) if b], 0.5)]
    for width in (2, 4, 8):
        params = ThickParams(lam_lo=r * width, lam_hi=r * width, shapes=("ball",), grid_eps=0.25)
        nets.append(build_net(enumerate_thick(lat, params), 0.5))
    ids = sum(net.members.concat.size for net in nets)
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{side}^2 multiscale set-up: {wall:.2f} s, peak RSS {peak:.0f} MB, "
          f"{sum(map(len, nets))} members, {ids / 1e6:.2f} M member ids")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 256)
