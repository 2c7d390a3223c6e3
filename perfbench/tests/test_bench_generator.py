import random

import pytest

import workloads
from ffweyl.algebra import parse_poly
from ffweyl.cli import build_parser
from ffweyl.expsum import ExpPoly
from ffweyl.kinfty import parse_kelem


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_list(workload):
    a = workloads.dump(workloads.generate(workload, 7))
    b = workloads.dump(workloads.generate(workload, 7))
    assert a == b
    assert a != workloads.dump(workloads.generate(workload, 8))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_chooses_values_not_shape(workload):
    def shape(ops):
        return [(op["id"], op["kind"], op["exit"], op["points"]) for op in ops]
    assert shape(workloads.generate(workload, 1)) == shape(workloads.generate(workload, 2))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_operations_are_well_formed(workload):
    ops = workloads.generate(workload, 3)
    assert len({op["id"] for op in ops}) == len(ops)
    parser = build_parser()
    for op in ops:
        if op["kind"] == "cli":
            parser.parse_args(op["argv"])
        for key in ("f",):
            obj = op.get("args", {}).get(key) or op["spec"].get(key)
            if obj is not None:
                ExpPoly.from_json(obj)


def test_text_forms_parse_back():
    from ffweyl.algebra import Field
    rng = random.Random(5)
    for q in workloads.FIELDS:
        F = Field.parse(f"q={q}")
        coeffs = workloads.rand_full_poly(rng, q, 5)
        assert list(parse_poly(F, workloads.fmt_poly(q, coeffs)).coeffs) == coeffs
        series = workloads.rand_series(rng, q, -12, top=1)
        assert parse_kelem(F, series["series"]).floor == -12


def test_irreducibles_have_no_root():
    rng = random.Random(1)
    for p in (2, 3, 5):
        for deg in (2, 3):
            c = workloads.rand_irreducible(rng, p, deg)
            assert len(c) == deg + 1 and c[-1] == 1
            assert not workloads._has_root(c, p)
