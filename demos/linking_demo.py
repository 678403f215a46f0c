"""Linking numbers from cross-component degree-1 integrals.

The combinatorial oracle is half the signed inter-component crossing
sum of the shadow diagram; the integral should land within 1e-3.

Run:  python3 demos/linking_demo.py
"""

from vassiliev import linking_matrix_total, linking_number, morse_embed, two_circles
from vassiliev.fixtures import PLAT_FIXTURES


def main():
    print("== Two-component fixtures ==")
    for name in ("hopf", "torus_2_4"):
        curve, shadow = PLAT_FIXTURES[name]()
        oracle = linking_matrix_total(shadow)
        res = linking_number(morse_embed(curve))
        print(f"{name:10s} integral {res.value.real:+.6f} (err {res.error:.1e})"
              f"   combinatorial {oracle:+d}")

    print()
    print("== Split circles: zero, decaying with separation ==")
    for distance in (3.0, 6.0, 12.0):
        mk = morse_embed(two_circles(distance))
        res = linking_number(mk)
        print(f"separation {distance:5.1f}: |lk| = {abs(res.value):.2e}")


if __name__ == "__main__":
    main()
