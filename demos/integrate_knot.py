"""Numerical chord-coefficient integrals of a sampled trefoil.

Loads the shipped 2-maxima trefoil curve, integrates the degree-2
placements, applies the hump normalization, and checks the crossed
coefficient against the skein-side v2 within its own error bar.

Run:  python3 demos/integrate_knot.py
"""

from vassiliev import (
    ChordDiagram,
    QuadratureSpec,
    degree_coefficients,
    hump_normalize,
    load_fixture,
    morse_embed,
    parse_gauss,
    v2,
)

CROSSED = ChordDiagram(((0, 2), (1, 3)))
TREFOIL = "O1+U2+O3+U1+O2+U3+"


def show(table, title):
    print(title)
    for d, c in table.items():
        flags = []
        if not c.converged:
            flags.append("not converged")
        if c.log_divergent:
            flags.append("log divergent")
        note = f"  [{', '.join(flags)}]" if flags else ""
        print(f"  {str(d):12s} {c.value.real:+.6f} {c.value.imag:+.6f}i"
              f"   err {c.error:.2e}{note}")


def main():
    mk = morse_embed(load_fixture("trefoil_2max"))
    print(f"embedded trefoil: {mk.n_maxima} maxima, {len(mk.slabs)} slabs, "
          f"margin {mk.embedding_margin:.3f}")

    quad = QuadratureSpec(steps=2000)
    raw = degree_coefficients(mk, 2, quad)
    show(raw, "\nraw degree-2 integrals (framing-contaminated):")

    corrected = hump_normalize(raw, mk)
    show(corrected, "\nafter dividing by the hump pattern (maxima - 1 = 1 power):")

    reference = v2(parse_gauss(TREFOIL))
    got, bar = corrected.value(CROSSED), corrected.error(CROSSED)
    gap = abs(got - reference)
    print(f"\ncrossed coefficient  : {got.real:+.6f}")
    print(f"skein v2             : {reference:+d}")
    print(f"difference           : {gap:.2e}  "
          f"({'within' if gap <= bar else 'outside'} its error bar {bar:.2e})")

    print("\nsame knot, different embedding (3 maxima):")
    mk3 = morse_embed(load_fixture("trefoil_3max"))
    table3 = hump_normalize(degree_coefficients(mk3, 2, quad), mk3)
    c3 = table3.value(CROSSED)
    print(f"  3-maxima crossed   : {c3.real:+.6f}")
    print(f"  2 vs 3 maxima gap  : {abs(got - c3):.2e}  "
          f"(the two error bars add to {bar + table3.error(CROSSED):.2e})")


if __name__ == "__main__":
    main()
