"""The output comparison tool's verdicts: bit for bit, in ULP, or in text."""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np

import alskit
import alskit.cli

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
    # one ULP of 0.25 is 2^-54, against the largest magnitude 3
    assert compare_outputs.difference(nudged, text) == (
        f"differs by at most 1 ULP, {2.0**-54 / 3.0:.2g} relative to its largest magnitude"
    )
    signed = ("x", np.array([-0.0])), ("x", np.array([0.0]))
    assert compare_outputs.difference(*signed) == "differs in the sign of a zero"
    other = compare_outputs._text_output("f = 0.25 after 3 sweeps (stalled)\n")
    assert compare_outputs.difference(other, text) == "differs in its text"


def test_relative_difference_is_the_largest_gap_over_the_largest_magnitude():
    # a rounding-level change across zero is a huge ULP count and a tiny relative one
    want = np.array([1e-300, -2.0, 0.5])
    got = np.array([-1e-300, -2.0, 0.5])
    assert compare_outputs.ulp_distance(got, want) > 10**17
    assert compare_outputs.relative_difference(got, want) == 2e-300 / 2.0
    assert compare_outputs.difference(("x", got), ("x", want)).endswith(
        ", 1e-300 relative to its largest magnitude"
    )
    assert compare_outputs.relative_difference(want, want) == 0.0
    # the gap is over the entries that differ, the scale over both arrays' finite entries
    assert compare_outputs.relative_difference([1.0, 4.0], [1.5, -8.0]) == 12.0 / 8.0
    assert compare_outputs.relative_difference([np.inf, 1.0], [np.inf, 2.0]) == 0.5
    # a NaN or inf on one side only, or a change among zeros, is infinitely far
    assert compare_outputs.relative_difference([np.nan, 1.0], [0.0, 1.0]) == np.inf
    assert compare_outputs.relative_difference([np.inf, 1.0], [1.0, 1.0]) == np.inf
    assert compare_outputs.relative_difference([np.nan], [0.0]) == np.inf


def test_listing_outputs_cover_the_gallery_and_every_describe():
    outputs = compare_outputs.listing_outputs(alskit)
    labels = alskit.gallery.LABELS
    assert sorted(outputs) == sorted(["gallery listing", *(f"describe {label}" for label in labels)])
    for label in labels:
        skeleton, numbers = outputs[f"describe {label}"]
        assert skeleton.endswith("\n--- stderr\n\n--- exit #\n") and numbers[-1] == 0
        assert compare_outputs.NUMBER.sub("#", alskit.gallery.SPECS[label].details) in skeleton
    assert outputs["gallery listing"][0].count("\n") == len(labels) + 4


def test_a_changed_spec_text_is_flagged(monkeypatch):
    label = alskit.gallery.LABELS[0]
    want = compare_outputs.listing_outputs(alskit)
    spec = alskit.gallery.SPECS[label]
    changed_spec = dataclasses.replace(spec, summary=spec.summary + "!")
    monkeypatch.setitem(alskit.gallery.SPECS, label, changed_spec)
    got = compare_outputs.listing_outputs(alskit)
    changed = [name for name in got if compare_outputs.difference(got[name], want[name])]
    assert changed == ["gallery listing"]


def test_error_outputs_are_one_error_line_and_exit_one():
    outputs = compare_outputs.error_outputs(alskit)
    messages = {
        "error blambda --lambda 1e308": "error: [blambda] Eigenvalues did not converge",
        "error mohlenkamp --tau 1e308": "error: [mohlenkamp] tensor entries must be finite",
        "error overflow svd": "error: [custom] SVD did not converge",
        "error overflow gram": "error: [custom] Eigenvalues did not converge",
        "error nan reference factor": "error: malformed problem document: "
        "reference factor must be finite",
        "error inf modewise factor": "error: malformed problem document: "
        "mode-0 factor entries must be finite",
        "error fractional dims": "error: malformed problem document: "
        "mode size must be an integer, got 2.7",
        # each of these four solved and exited 0 before documents took numbers only
        "error string dense target": "error: malformed problem document: "
        "dense must hold numbers only, got '1'",
        "error string coeff": "error: malformed problem document: "
        "terms must hold numbers only, got '2'",
        "error bool init": "error: malformed problem document: "
        "init must hold numbers only, got True",
        "error string operator matrix": "error: malformed problem document: "
        "matrix must hold numbers only, got '1'",
    }
    assert sorted(outputs) == sorted(messages)
    for name, message in messages.items():
        want = compare_outputs._text_output(f"\n--- stderr\n{message}\n\n--- exit 1\n")
        assert compare_outputs.difference(outputs[name], want) is None, name


def test_a_changed_error_message_is_flagged(monkeypatch):
    want = compare_outputs.error_outputs(alskit)

    def reworded(W, eps_rank):
        raise np.linalg.LinAlgError("Eigenvalues did not converge!")

    monkeypatch.setattr(alskit.engine, "lowdin_basis", reworded)
    got = compare_outputs.error_outputs(alskit)
    changed = sorted(name for name in got if compare_outputs.difference(got[name], want[name]))
    assert changed == ["error blambda --lambda 1e308", "error overflow gram"]


def test_scaled_outputs_are_finite_traces_that_do_not_stop_on_a_zero_gradient():
    outputs = compare_outputs.scaled_outputs(alskit)
    assert sorted(outputs) == ["scaled target 1e+150", "scaled target 1e-150"]
    for text, numbers in outputs.values():
        assert text.startswith("termination=") and "termination=grad_small" not in text
        assert np.isfinite(numbers).all()
