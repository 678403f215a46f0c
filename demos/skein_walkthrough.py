"""Conway polynomials and the node-resolution rule, end to end.

Run:  python3 demos/skein_walkthrough.py
"""

import random

from vassiliev import braid_closure, conway, parse_gauss, parse_pd, v2, vassiliev_eval
from vassiliev.codes import sample_singular_diagrams

TREFOIL = "O1+U2+O3+U1+O2+U3+"
FIGURE_EIGHT = "O1+U2+O3-U4-O2+U1+O4-U3-"


def main():
    print("== Conway polynomials from codes ==")
    unknot = braid_closure([], 1)
    print(f"unknot          nabla = {conway(unknot)}")
    trefoil = parse_gauss(TREFOIL)
    print(f"trefoil         nabla = {conway(trefoil)}   (Gauss {TREFOIL})")
    fig8 = parse_gauss(FIGURE_EIGHT)
    print(f"figure-eight    nabla = {conway(fig8)}")
    hopf = braid_closure([1, 1])
    print(f"positive Hopf   nabla = {conway(hopf)}")
    pd = parse_pd("X(1,5,2,4) X(3,1,4,6) X(5,3,6,2)")
    print(f"trefoil via PD  nabla = {conway(pd)}")

    print()
    print("== v2, the degree-2 coefficient ==")
    print(f"v2(trefoil)      = {v2(trefoil)}")
    print(f"v2(figure-eight) = {v2(fig8)}")
    print(f"v2(unknot)       = {v2(unknot)}")

    print()
    print("== Singular diagrams: nodes resolve to a difference ==")
    rng = random.Random(7)
    d = sample_singular_diagrams(rng, 1, 1, max_crossings=6)[0]
    nid = d.node_ids[0]
    lhs = vassiliev_eval(conway, d)
    rhs = conway(d.resolve_node(nid, "positive")) - conway(d.resolve_node(nid, "negative"))
    print(f"random 1-node diagram, {d.n_crossings} crossings")
    print(f"  extension value      : {lhs}")
    print(f"  nabla(K+) - nabla(K-): {rhs}")
    print(f"  equal: {lhs == rhs}")

    print()
    print("== Finite type: order-2 extension kills 3-node diagrams ==")
    for d in sample_singular_diagrams(rng, 3, 3, one_component=True):
        val = vassiliev_eval(v2, d)
        print(f"  3 nodes, {d.n_crossings} crossings -> extended v2 = {val}")


if __name__ == "__main__":
    main()
