"""Chord diagrams, four-term relations, Lie-algebra weights.

Run:  python3 demos/chords_and_weights.py
"""

from vassiliev import (
    ChordDiagram,
    enumerate_diagrams,
    four_term_relations,
    gl_fundamental,
    satisfies_4T,
    su2_fundamental,
    weight,
    weight_system,
)


def main():
    print("== Enumeration: raw matchings vs canonical diagrams ==")
    for m in range(5):
        diagrams, raw = enumerate_diagrams(m)
        print(f"degree {m}: {raw:4d} raw matchings, {len(diagrams):3d} canonical")

    print()
    print("== The two degree-2 diagrams ==")
    parallel = ChordDiagram(((0, 1), (2, 3)))
    crossed = ChordDiagram(((0, 2), (1, 3)))
    print(f"parallel chords: {parallel}   isolated: {parallel.isolated_chords()}")
    print(f"crossed chords : {crossed}   isolated: {crossed.isolated_chords()}")

    print()
    print("== su(2) fundamental weights, exact ==")
    su2 = su2_fundamental()
    for m in (0, 1, 2):
        table = weight_system(su2, m)
        for d, w in sorted(table.items()):
            print(f"degree {m}  {str(d):12s} -> {w}")

    print()
    print("== Weight systems satisfy every 4T relation ==")
    rels = four_term_relations(2)
    print(f"degree 2 has {len(rels)} independent relations; first one:")
    for sign, d in rels[0]:
        print(f"  {'+' if sign > 0 else '-'} w({d})")
    for name, algebra in [("su2", su2)] + [(f"gl{n}", gl_fundamental(n)) for n in (2, 3)]:
        for m in (2, 3):
            ok, _ = satisfies_4T(lambda d: weight(algebra, d), m)
            print(f"  {name:4s} degree {m}: 4T {'holds' if ok else 'FAILS'}")

    print()
    print("== gl(N) weights count loops: single chord -> N^2/2 ==")
    single = ChordDiagram(((0, 1),))
    for n in (1, 2, 3, 4):
        w = weight(gl_fundamental(n), single)
        print(f"  gl{n}: w(single chord) = {w}")


if __name__ == "__main__":
    main()
