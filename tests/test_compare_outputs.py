"""The output comparison tool's verdicts: bit for bit, in ULP, or in text."""

import importlib.util
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def test_ulp_distance_counts_representable_steps_across_zero():
    tiny = np.nextafter(0.0, 1.0)
    assert compare_outputs.ulp_distance([1.0], [np.nextafter(1.0, 2.0)]) == 1
    assert compare_outputs.ulp_distance([0.0], [-0.0]) == 0
    assert compare_outputs.ulp_distance([-tiny], [tiny]) == 2
    assert compare_outputs.ulp_distance([1.0, -2.0], [1.0, np.nextafter(-2.0, 0.0)]) == 1


def test_difference_is_none_only_bit_for_bit():
    text = compare_outputs._text_output("f = 0.25 after 3 sweeps\n")
    assert text[0] == "f = # after # sweeps\n"
    assert np.array_equal(text[1], [0.25, 3.0])
    assert compare_outputs.difference(text, text) is None
    nudged = (text[0], np.array([np.nextafter(0.25, 1.0), 3.0]))
    assert compare_outputs.difference(nudged, text) == "differs by at most 1 ULP"
    signed = ("x", np.array([-0.0])), ("x", np.array([0.0]))
    assert compare_outputs.difference(*signed) == "differs in the sign of a zero"
    other = compare_outputs._text_output("f = 0.25 after 3 sweeps (stalled)\n")
    assert compare_outputs.difference(other, text) == "differs in its text"
