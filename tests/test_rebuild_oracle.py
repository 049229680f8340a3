"""Differential oracle for rebuilding expressions from canonical forms.

The two per-family atom rebuilders that ``canon`` replaced with one
atom-to-node map, and the polynomial rebuilder that took them, are kept
below verbatim.  On the canonical forms of every derive-corpus estimand and
of its gradient, in both modes, and of spliced grammar inputs that bring in
smooth atoms, ``rv_from_form`` and ``func_from_form`` must build trees
``==`` to the ones the old rebuilders build.
"""

import pytest

from eicalg.canon import (
    _atom_key,
    _base_mono_rv,
    _mono_key,
    canonicalize_func,
    canonicalize_rv,
    func_from_form,
    rv_from_form,
)
from eicalg.eic import derive_eic
from eicalg.errors import EicalgError, NormalizationError
from eicalg.expr import (
    BaseVar,
    Moment,
    f_pow,
    f_product,
    f_recip,
    f_sum,
    rv_embed,
    rv_pow,
    rv_product,
    rv_sum,
)
from eicalg.parser import parse_expression
from conftest import spliced_expression
from workloads import derive_corpus

# ---------------------------------------------------------------------------
# the per-family rebuilders, as they were


def _poly_to_expr(poly, atom_power, product, total):
    """Expression for a polynomial with its terms in canonical order, in the
    family whose atom-power, product and sum constructors are passed (they
    coerce the coefficient)."""
    terms = []
    for mono, coeff in sorted(poly.items(), key=lambda item: _mono_key(item[0])):
        atoms = sorted(mono, key=lambda item: _atom_key(item[0]))
        terms.append(product(coeff, *(atom_power(atom, exp) for atom, exp in atoms)))
    return total(*terms)


def _func_atom_power(atom, exp):
    kind, payload = atom
    if kind == "v":
        raise NormalizationError("base variable in a scalar-functional polynomial")
    node = Moment(_base_mono_rv(payload)) if kind == "m" else payload[1]
    return f_pow(node, exp)


def _rv_atom_power(atom, exp):
    if atom[0] == "v":
        return rv_pow(BaseVar(atom[1]), exp)
    return rv_pow(rv_embed(_func_atom_power(atom, 1)), exp)


def _poly_to_func(poly):
    return _poly_to_expr(poly, _func_atom_power, f_product, f_sum)


def oracle_func_from_form(form):
    num = _poly_to_func(form.num)
    if form.is_polynomial:
        return num
    return f_product(num, f_recip(_poly_to_func(form.den)))


def oracle_rv_from_form(form):
    num = _poly_to_expr(form.num, _rv_atom_power, rv_product, rv_sum)
    if form.is_polynomial:
        return num
    return rv_product(num, rv_embed(f_recip(_poly_to_func(form.den))))


# ---------------------------------------------------------------------------


def _assert_rebuilds_match(text, mode):
    """Both rebuilders agree on the forms of ``text`` and of its gradient,
    with its embedded functionals expanded and kept as opaque atoms; returns
    whether the gradient could be derived."""
    psi = parse_expression(text)
    psi_form = canonicalize_func(psi)
    assert func_from_form(psi_form) == oracle_func_from_form(psi_form)
    assert rv_from_form(psi_form) == oracle_rv_from_form(psi_form)
    try:
        eic = derive_eic(psi, mode=mode).eic
    except EicalgError:  # a smooth estimand in exact mode, or a zero reciprocal
        return False
    for form in (canonicalize_rv(eic), canonicalize_rv(eic, {})):
        assert rv_from_form(form) == oracle_rv_from_form(form)
    return True


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_derive_corpus_forms_rebuild_as_before(mode):
    derived = [_assert_rebuilds_match(text, mode) for text in derive_corpus()]
    assert sum(derived) > len(derived) // 2


def test_spliced_inputs_rebuild_as_before_in_float_mode():
    checked = 0
    for seed in range(300):
        try:
            checked += _assert_rebuilds_match(spliced_expression(seed), "float")
        except NormalizationError:  # a reciprocal of a zero functional
            continue
    assert checked > 200
