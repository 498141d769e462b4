"""Figure presets: each builds the same closed form, field for field."""

import re

import pytest

from kbwave.presets import PRESETS, build_preset

FIELDS = ("kind", "kernel", "A", "B", "C", "D", "beta", "modulus", "branch", "params", "notes")

# repr of each field of the built solution, recorded before the presets became
# rows of the family table; a refactor must reproduce them exactly
GOLDEN = {
    "fig-case1a": {
        "kind": "'solitary_double'",
        "kernel": "'sech'",
        "A": "-4.0",
        "B": "2.0",
        "C": "2.0",
        "D": "0.0",
        "beta": "1.0",
        "modulus": "None",
        "branch": "'upper'",
        "params": "Params(c=2.0, d1=-1.75, d2=-3.5, d3=-1.5)",
        "notes": "()",
    },
    "fig-case1b-k05": {
        "kind": "'case1_dn'",
        "kernel": "'dn'",
        "A": "-2.0",
        "B": "1.0",
        "C": "1.0",
        "D": "0.0",
        "beta": "1.0",
        "modulus": "0.5000000000000004",
        "branch": "'upper'",
        "params": "Params(c=2.0, d1=-1.5625, d2=-3.125, d3=-1.2187500000000002)",
        "notes": "()",
    },
    "fig-case2a": {
        "kind": "'case2_sn'",
        "kernel": "'sn'",
        "A": "1.0",
        "B": "0.0",
        "C": "-1.9999999999999991",
        "D": "-1.7320508075688765",
        "beta": "1.0000000000000002",
        "modulus": "0.0",
        "branch": "'upper'",
        "params": "Params(c=1.0, d1=0.7499999999999999, d2=0.0, d3=-0.0)",
        "notes": "()",
    },
    "fig-case2b": {
        "kind": "'case2_cn'",
        "kernel": "'cn'",
        "A": "1.0",
        "B": "0.0",
        "C": "1.9999999999999991",
        "D": "-1.7320508075688765",
        "beta": "1.0000000000000002",
        "modulus": "0.0",
        "branch": "'upper'",
        "params": "Params(c=-1.0, d1=0.7499999999999999, d2=0.0, d3=-0.0)",
        "notes": "()",
    },
    "fig-case2bc-k1": {
        "kind": "'case2_dn'",
        "kernel": "'dn'",
        "A": "1.0",
        "B": "0.0",
        "C": "0.9999999999999998",
        "D": "-0.935414346693485",
        "beta": "2.6457513110645903",
        "modulus": "1.0",
        "branch": "'upper'",
        "params": "Params(c=-4.5, d1=9.999999999999998, d2=4.000000000000002, "
                  "d3=-1.0000000000000007)",
        "notes": "()",
    },
    "fig-case2e": {
        "kind": "'case2_inv_sn'",
        "kernel": "'sn'",
        "A": "0.0",
        "B": "1.0",
        "C": "2.0",
        "D": "1.0000000000000002",
        "beta": "1.1547005383792512",
        "modulus": "0.0",
        "branch": "'upper'",
        "params": "Params(c=-0.3333333333333332, d1=0.2777777777777778, "
                  "d2=-0.1666666666666666, d3=0.04166666666666665)",
        "notes": "()",
    },
    "fig-case2f": {
        "kind": "'case2_inv_cn'",
        "kernel": "'cn'",
        "A": "0.0",
        "B": "1.0",
        "C": "2.0",
        "D": "1.0000000000000002",
        "beta": "1.1547005383792515",
        "modulus": "0.0",
        "branch": "'upper'",
        "params": "Params(c=-0.3333333333333332, d1=0.2777777777777778, "
                  "d2=-0.1666666666666666, d3=0.04166666666666665)",
        "notes": "()",
    },
    "fig-case2f-k1": {
        "kind": "'case2_inv_cn'",
        "kernel": "'cn'",
        "A": "0.0",
        "B": "1.0",
        "C": "2.0",
        "D": "1.0000000000000002",
        "beta": "0.5773502691896257",
        "modulus": "1.0",
        "branch": "'upper'",
        "params": "Params(c=0.16666666666666669, d1=0.1111111111111111, d2=0.0, d3=0.0)",
        "notes": "()",
    },
}


def test_golden_covers_every_preset():
    assert sorted(GOLDEN) == sorted(PRESETS)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_preset_fields_exact(name):
    sol, _ = build_preset(name)
    assert {f: repr(getattr(sol, f)) for f in FIELDS} == GOLDEN[name]


def test_unknown_preset_is_named_with_the_others():
    available = ", ".join(sorted(PRESETS))
    with pytest.raises(KeyError, match=re.escape(f"unknown preset 'fig-case9'; available: "
                                                 f"{available}")):
        build_preset("fig-case9")
