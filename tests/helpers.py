"""Seeded generators shared across the test modules."""
from ffweyl.algebra import Field, Poly, poly_from_index
from ffweyl.expsum import ExpPoly
from ffweyl.kinfty import RationalK, TruncSeries


def field(q, modulus=None):
    return Field.parse(f"q={q}" if modulus is None else f"q={q} modulus={modulus}")


def rand_poly(rng, F, max_deg):
    return poly_from_index(F, rng.randrange(F.q ** (max_deg + 1)), max_deg + 1)


def rand_nonzero_poly(rng, F, max_deg):
    return poly_from_index(F, rng.randrange(1, F.q ** (max_deg + 1)), max_deg + 1)


def rand_monic(rng, F, deg):
    low = poly_from_index(F, rng.randrange(F.q ** deg), deg).coeffs
    return Poly(F, list(low) + [0] * (deg - len(low)) + [1])


def rand_rational(rng, F, max_deg):
    return RationalK(rand_poly(rng, F, max_deg), rand_nonzero_poly(rng, F, max_deg))


def rand_series(rng, F, floor, top=1):
    return TruncSeries.from_digits(
        F, floor, {e: rng.randrange(F.q) for e in range(floor, top + 1)})


def rand_kelem(rng, F, max_deg=3, floor=-40):
    if rng.random() < 0.5:
        return rand_rational(rng, F, max_deg)
    return rand_series(rng, F, floor)


def rand_exppoly(rng, F, max_exp=6, max_terms=3, floor=-40, with_const=0.4):
    coeffs = {r: rand_kelem(rng, F, floor=floor)
              for r in rng.sample(range(1, max_exp + 1),
                                  rng.randrange(1, max_terms + 1))}
    if rng.random() < with_const:
        coeffs[0] = rand_kelem(rng, F, floor=floor)
    return ExpPoly(F, coeffs)
