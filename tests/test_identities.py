"""Identity verifier: positive sweeps, cross-checks, and fault injection."""

import functools
import itertools
import math
import weakref
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stirnum import identities as identities_module
from stirnum import series as series_module
from stirnum.errors import DomainError, PrecisionExhaustedError, ZeroSeriesError
from stirnum.identities import (
    ALL_IDENTITY_IDS,
    CORE_IDENTITY_IDS,
    DEFAULT_LAMBDAS,
    DEFAULT_MIN_WINDOW,
    GENERAL_IDENTITY_IDS,
    PLUS_IDENTITY_IDS,
    VERIFY_OPTIONS,
    CheckRow,
    core_identity_coefficients,
    default_order,
    run_sweep,
    verify_core_identity,
    verify_general_derivative,
    verify_general_power,
    verify_plus_identity,
    verify_target,
)
from stirnum.identities import _NAMED_CHECKS, _SPECS, _weights
from stirnum.sequences import REDUCTION_LAMBDAS, apostol_bernoulli_oracle, bernoulli_oracle
from stirnum.series import (
    _EGF_MIN_LENGTH,
    LaurentSeries,
    _Ladder,
    _Ladders,
    linear_combination,
    recip_exp_linear,
)
from stirnum.stirling import b_coeff, lambda_coeff, stirling1, stirling2
from store_helpers import STORE_BITS, base_order, cold_entry, held_order, ladder_key


def standalone_checks(targets, k_max, order, alphas, lambdas):
    """run_sweep's reports in its order, each from a standalone check, after
    every target is checked to be a tag."""
    for target in targets:
        if target not in ALL_IDENTITY_IDS:
            raise DomainError(f"unknown identity tag {target!r}")
    reports = []
    for target in targets:
        for k in range(1, k_max + 1):
            if target in CORE_IDENTITY_IDS:
                reports.append(verify_core_identity(target, k, order))
            elif target in PLUS_IDENTITY_IDS:
                reports.append(verify_plus_identity(target, k, order))
            else:
                check = verify_general_derivative if target == "G1" else verify_general_power
                for alpha in sorted(Fraction(a) for a in alphas):
                    for lam in sorted(Fraction(v) for v in lambdas):
                        reports.append(check(k, alpha, lam, order))
    return reports


def independent_sweep(cold_store, targets, k_max, order, alphas, lambdas):
    """standalone_checks on a cold store, so that no check reads a ladder
    that run_sweep or an earlier check built."""
    with cold_store():
        return standalone_checks(targets, k_max, order, alphas, lambdas)


def sweep_outcome(sweep, *args):
    """The reports, or the type and message of the error raised."""
    try:
        return sweep(*args)
    except (DomainError, PrecisionExhaustedError, ZeroSeriesError) as exc:
        return type(exc), str(exc)


class TestCoreIdentities:
    def test_all_pass_small(self):
        for identity_id in CORE_IDENTITY_IDS:
            for k in range(1, 7):
                report = verify_core_identity(identity_id, k)
                assert report.passed, report

    def test_window_is_wide_enough(self):
        for identity_id in CORE_IDENTITY_IDS:
            report = verify_core_identity(identity_id, 5)
            lo, hi = report.window
            assert hi - lo >= DEFAULT_MIN_WINDOW

    def test_hand_checked_weights(self):
        assert core_identity_coefficients("I1", 1) == [-1, -1]
        assert core_identity_coefficients("I2", 1) == [1, -1]
        assert core_identity_coefficients("I5", 3) == [1, Fraction(-3, 2), Fraction(1, 2)]
        assert core_identity_coefficients("I6", 2) == [-1, -1]
        assert core_identity_coefficients("I8", 3) == [1, Fraction(3, 2), Fraction(1, 2)]

    def test_derivative_forms_share_their_rhs(self):
        # I1 and I3 use the same right-hand side; so do I2 and I4.  The pairs
        # differ only in which function is differentiated on the left, and
        # both pass because f and g differ by the constant 1, which dies
        # under differentiation.
        for k in range(1, 11):
            assert core_identity_coefficients("I1", k) == core_identity_coefficients("I3", k)
            assert core_identity_coefficients("I2", k) == core_identity_coefficients("I4", k)
        for k in range(1, 9):
            order = default_order(k)
            f = recip_exp_linear(1, 1, -1, order)
            g = recip_exp_linear(-1, -1, 1, order)
            diff = g - f
            assert diff.coeff(0) == 1
            assert all(c == 0 for e, c in diff.coefficients() if e != 0)

    def test_eighth_identity_constant_is_not_plus_one(self):
        # replacing the (-1)**k constant with +1 must break every odd k
        for k in (1, 3, 5):
            weights = core_identity_coefficients("I8", k)
            report = verify_core_identity("I8", k, coeff_override=weights)
            assert report.passed
            # rebuild the right-hand side with the constant forced to +1;
            # for odd k it must miss the left-hand side by exactly 2 at t^0
            order = default_order(k)
            f = recip_exp_linear(1, 1, -1, order)
            g = recip_exp_linear(-1, -1, 1, order)
            lhs = f**k
            derivatives = itertools.accumulate(range(k - 1), lambda s, _: s.derivative(), initial=g)
            rhs_printed = linear_combination(list(derivatives), weights) + LaurentSeries.one(
                order - 1
            )
            # the printed variant misses lhs by the constant 2 at t^0
            delta = lhs - rhs_printed
            assert delta.coeff(0) == -2
            assert all(c == 0 for e, c in delta.coefficients() if e != 0)


class TestPlusIdentities:
    def test_all_pass_small(self):
        for identity_id in PLUS_IDENTITY_IDS:
            for k in range(1, 9):
                report = verify_plus_identity(identity_id, k)
                assert report.passed, report

    def test_base_series_value(self):
        h = (  # 1/(e^t + 1) starts at 1/2 - t/4
            recip_exp_linear(Fraction(1), Fraction(-1), -1, 10).scale(-1)
        )
        assert h.coeff(0) == Fraction(1, 2)
        assert h.coeff(1) == Fraction(-1, 4)


class TestGeneralIdentities:
    def test_spot_checks(self):
        report = verify_general_derivative(2, Fraction(-3, 2), Fraction(2), order=14)
        assert report.passed
        report = verify_general_power(3, Fraction(1, 2), Fraction(-5, 3))
        assert report.passed

    def test_laurent_branch_lambda_one(self):
        for k in (1, 2, 5):
            assert verify_general_derivative(k, Fraction(2), Fraction(1)).passed
            assert verify_general_power(k, Fraction(2), Fraction(1)).passed

    def test_specializes_to_core(self):
        # at alpha = lambda = 1 the base is f and G1/G2 coincide with I1/I6
        for k in range(1, 7):
            g1 = verify_general_derivative(k, 1, 1)
            i1 = verify_core_identity("I1", k)
            assert g1.passed and i1.passed
            g2 = verify_general_power(k, 1, 1)
            i6 = verify_core_identity("I6", k)
            assert g2.passed and i6.passed
        # the specialization is coefficient-level, not just pass/fail: the
        # base series agree and the derivative-sum weights collapse to lambda
        order = default_order(4)
        assert recip_exp_linear(Fraction(1), Fraction(1), -1, order) == recip_exp_linear(
            1, 1, -1, order
        )
        for k in range(1, 7):
            for m in range(1, k + 2):
                assert (-1) ** k * math.factorial(m - 1) * stirling2(k + 1, m) == lambda_coeff(k, m)
            # a G1 point scales I1's weights by alpha**k
            for alpha in (Fraction(1), Fraction(3, 2)):
                i1 = core_identity_coefficients("I1", k)
                assert _weights("G1", k, alpha) == [alpha**k * w for w in i1]

    def test_first_kind_weights_match_b_route(self):
        # the derivative-sum weights written through s(k, m) equal the ones
        # written through b_{k, m-1} once the alpha powers are absorbed
        for k in range(1, 9):
            for alpha in (Fraction(1), Fraction(2), Fraction(-1, 2)):
                for m in range(1, k + 1):
                    s_route = (
                        (-1) ** (m - 1)
                        * alpha ** (1 - m)
                        * Fraction(stirling1(k, m), math.factorial(k - 1))
                    )
                    b_route = b_coeff(k, m) * alpha ** (1 - m)
                    assert s_route == b_route
                assert _weights("G2", k, alpha) == [
                    b_coeff(k, m) * alpha ** (1 - m) for m in range(1, k + 1)
                ]

    def test_domain(self):
        with pytest.raises(DomainError):
            verify_general_derivative(0, 1, 2)
        with pytest.raises(DomainError):
            verify_general_derivative(2, 0, 2)
        with pytest.raises(DomainError):
            verify_general_power(2, 1, 0)


class TestFaultInjection:
    @pytest.mark.parametrize(
        "identity_id,k,position",
        [("I1", 4, 2), ("I3", 3, 0), ("I5", 5, 4), ("I6", 4, 1), ("I8", 6, 3)],
    )
    def test_corrupted_weight_detected(self, identity_id, k, position):
        weights = core_identity_coefficients(identity_id, k)
        weights[position] += 1
        report = verify_core_identity(identity_id, k, coeff_override=weights)
        assert not report.passed
        assert report.first_discrepancy is not None
        e, lhs, rhs = report.first_discrepancy
        assert lhs != rhs

    def test_corrupted_plus_weight_detected(self):
        good = verify_plus_identity("P1", 3)
        assert good.passed
        weights = [
            (-1) ** (m - 1) * Fraction(core_identity_coefficients("I1", 3)[m - 1])
            for m in range(1, 5)
        ]
        weights[1] += Fraction(1, 7)
        report = verify_plus_identity("P1", 3, coeff_override=weights)
        assert not report.passed

    def test_scaled_weights_detected(self):
        weights = [2 * w for w in core_identity_coefficients("I2", 5)]
        report = verify_core_identity("I2", 5, coeff_override=weights)
        assert not report.passed

    @pytest.mark.parametrize(
        "verify, identity_id",
        [(verify_core_identity, tag) for tag in CORE_IDENTITY_IDS]
        + [(verify_plus_identity, tag) for tag in PLUS_IDENTITY_IDS],
    )
    def test_override_of_wrong_length_rejected(self, verify, identity_id):
        # Summed pairwise, an extra weight would drop out and a missing
        # one would read as zero.  The count is checked before the chain
        # rule's powers of alpha or the signs are folded in, on every tag.
        weights = _weights(identity_id, 3, None)
        assert verify(identity_id, 3, coeff_override=weights).passed
        for wrong in (weights + [999], weights[:-1]):
            message = f"^{len(weights)} terms but {len(wrong)} weights$"
            with pytest.raises(DomainError, match=message):
                verify(identity_id, 3, coeff_override=wrong)

    @pytest.mark.parametrize("identity_id, k", [("I1", 2), ("I7", 2), ("I7", 5), ("I8", 3), ("I8", 4)])
    def test_all_zero_weights_fail(self, identity_id, k):
        # The weighted sum is then the exact zero; on I7 and I8 the right
        # side is the constant alone, which the left power never equals.
        zeros = [0] * len(core_identity_coefficients(identity_id, k))
        report = verify_core_identity(identity_id, k, coeff_override=zeros)
        assert not report.passed
        lo, hi = report.window
        assert hi - lo >= DEFAULT_MIN_WINDOW
        e, lhs, rhs = report.first_discrepancy
        assert e == lo and lhs != rhs


class TestVerifyTarget:
    def test_rows_in_plan_order(self):
        rows = verify_target("all", 1, alpha=2, lam=Fraction(1, 2))
        kinds = [r.check if isinstance(r, CheckRow) else r.identity_id for r in rows]
        assert kinds == list(ALL_IDENTITY_IDS) + ["det-relation", "alt-sum"] + ["reductions"] * 2
        assert all(r.passed for r in rows)

    def test_single_tag_is_its_sweep(self):
        assert verify_target("P2", 3, order=20) == run_sweep(["P2"], 3, 20)
        assert verify_target("G2", 2, lam=3) == run_sweep(["G2"], 2, lambdas=[3])

    def test_named_checks_count(self):
        assert len(verify_target("det-relation", 4)) == 10
        assert [r.fields for r in verify_target("alt-sum", 2)] == [{"n": 1}, {"n": 2}]
        assert len(verify_target("reductions", 1, alpha=2)) == 2 * 3
        # Rows hold values; the command line renders them.
        first = verify_target("reductions", 1, alpha=2, lam=Fraction(1, 4))[0]
        assert first.fields == {"n": 0, "alpha": Fraction(2), "lambda": Fraction(1, 4)}
        assert all(type(v) is Fraction for v in list(first.fields.values())[1:])

    def test_unknown_target_rejected(self):
        with pytest.raises(DomainError):
            verify_target("I9", 2)

    def test_all_is_every_other_target_in_table_order(self):
        targets = [target for target in VERIFY_OPTIONS if target != "all"]
        assert targets == [*_SPECS, *_NAMED_CHECKS]
        rows = []
        for target in targets:
            reads = VERIFY_OPTIONS[target]
            alpha = 2 if "alpha" in reads else None
            lam = Fraction(1, 2) if "lambda" in reads else None
            rows += verify_target(target, 2, alpha, lam)
        assert verify_target("all", 2, alpha=2, lam=Fraction(1, 2)) == rows

    def test_options_of_each_tag(self):
        for tag in GENERAL_IDENTITY_IDS:
            assert VERIFY_OPTIONS[tag] == ("alpha", "lambda", "order")
        for tag in CORE_IDENTITY_IDS + PLUS_IDENTITY_IDS:
            assert VERIFY_OPTIONS[tag] == ("order",)

    @pytest.mark.parametrize(
        "target, option, given",
        [
            ("I1", "alpha", {"alpha": 2}),
            ("det-relation", "order", {"order": 5}),
            ("reductions", "order", {"order": 5}),
        ],
    )
    def test_option_the_target_does_not_read_rejected(self, target, option, given):
        with pytest.raises(DomainError, match=f"^verify {target} does not read the {option} option$"):
            verify_target(target, 2, **given)


class TestSweeps:
    def test_run_sweep_order_is_deterministic(self):
        reports = run_sweep(["I1", "P2"], 3)
        labels = [(r.identity_id, r.k) for r in reports]
        assert labels == [("I1", 1), ("I1", 2), ("I1", 3), ("P2", 1), ("P2", 2), ("P2", 3)]

    def test_general_grid_sorted(self):
        reports = run_sweep(["G1"], 1, alphas=[1, -1], lambdas=[2, Fraction(1, 2)])
        points = [(r.alpha, r.lam) for r in reports]
        assert points == [
            (Fraction(-1), Fraction(1, 2)),
            (Fraction(-1), Fraction(2)),
            (Fraction(1), Fraction(1, 2)),
            (Fraction(1), Fraction(2)),
        ]

    @pytest.mark.parametrize("alphas, lambdas", [([], None), (None, []), ([], [])])
    def test_an_empty_grid_sweeps_no_points(self, alphas, lambdas):
        # Only None selects the default grid; the fixed-base tags still run.
        assert run_sweep(["G1", "G2"], 2, alphas=alphas, lambdas=lambdas) == []
        reports = run_sweep(["I1", "G1"], 2, alphas=alphas, lambdas=lambdas)
        assert [(r.identity_id, r.k) for r in reports] == [("I1", 1), ("I1", 2)]

    def test_unknown_tag_rejected(self):
        with pytest.raises(DomainError):
            run_sweep(["I9"], 2)
        with pytest.raises(DomainError):
            verify_core_identity("Q1", 2)
        with pytest.raises(DomainError):
            verify_plus_identity("I1", 2)

    def test_an_unknown_tag_raises_before_any_work(self, monkeypatch, cold_store):
        built = []
        real = series_module._build_base
        monkeypatch.setattr(series_module, "_build_base", lambda *args: built.append(args) or real(*args))
        with cold_store(), pytest.raises(DomainError, match="^unknown identity tag 'X'$"):
            run_sweep(["G1", "X"], 12)
        assert built == []

    def test_all_tags_covered(self):
        assert len(ALL_IDENTITY_IDS) == 12
        # one spec row per tag, and no row without a tag
        assert tuple(_SPECS) == ALL_IDENTITY_IDS

    def test_sweep_past_the_kernel_split(self):
        # At k = 48 the ladders start at order 106, past the split: their
        # bases are written down and long-divided by Pascal's rule, and
        # their products run on the one product kernel.
        assert default_order(48) - 2 >= _EGF_MIN_LENGTH
        reports = run_sweep(["I3", "I8", "P2", "G2"], 48, alphas=[Fraction(-3, 2)], lambdas=[2])
        assert len(reports) == 4 * 48
        assert all(report.passed for report in reports)

    @settings(max_examples=200, deadline=None)
    @given(
        targets=st.lists(st.sampled_from(ALL_IDENTITY_IDS + ("I9",)), min_size=1, max_size=3),
        k_max=st.integers(1, 7),
        order=st.one_of(st.none(), st.integers(1, 30)),
        alphas=st.lists(
            st.sampled_from([0, -2, Fraction(-3, 2), Fraction(1, 2), 1, 3]),
            min_size=1,
            max_size=2,
            unique=True,
        ),
        lambdas=st.lists(
            st.sampled_from([0, Fraction(-5, 3), -1, Fraction(1, 2), 1, 2]),
            min_size=1,
            max_size=2,
            unique=True,
        ),
    )
    def test_sweep_matches_independent_checks(self, cold_store, targets, k_max, order, alphas, lambdas):
        # the sweep builds each ladder once, or reads it from the store,
        # and truncates it per k; every report, and the first error with
        # its message, must be what one standalone check per report gives
        # on a cold store
        args = (targets, k_max, order, alphas, lambdas)
        assert sweep_outcome(run_sweep, *args) == sweep_outcome(independent_sweep, cold_store, *args)


class TestPrecisionGuard:
    def test_narrow_window_raises_instead_of_passing(self):
        with pytest.raises(PrecisionExhaustedError):
            verify_core_identity("I1", 4, order=9)
        with pytest.raises(PrecisionExhaustedError):
            verify_general_power(3, 1, 1, order=8)


def cold_sum(ladder, tag, k, order, alpha=Fraction(1)):
    """The right side of tag at k and alpha that a check at ``order``
    stores in ``ladder``, at alpha = 1 and sign 1, and the end of its
    compared window: the right side from entries built at that order on the
    bases at alpha and sign, its coefficient e over
    sign_l * alpha_l**(e + j), alpha_l the left base's alpha, sign_l its
    sign, to the power k on the power kind, and j = k on the derivative
    kind, 0 on the power kind.  A G sum stored without its alpha is the one
    at alpha = 1."""
    lhs_base, kind, _, rhs_base, constant, _ = _SPECS[tag]
    point = (alpha, ladder.mu, 1)
    (lhs_alpha, _, lhs_sign), base = lhs_base or point, rhs_base or point
    assert base[1] == ladder.mu
    if kind == "derivative":
        terms = [cold_entry(base, "powers", m, order) for m in range(1, k + 2)]
    else:
        terms = [cold_entry(base, "derivatives", j, order) for j in range(1, k + 1)]
    rhs = linear_combination(terms, _weights(tag, k, alpha))
    hi = rhs.precision
    if constant is not None:
        hi = min(hi, terms[0].precision)
        if hi >= 1:
            rhs = rhs + LaurentSeries.constant(constant(k), hi)
    if not rhs.is_zero:
        j = k if kind == "derivative" else 0
        sign = lhs_sign if j else lhs_sign**k
        rhs = series_module._dilated(rhs, 1 / lhs_alpha).scale(sign * lhs_alpha**-j)
    return rhs, hi


def assert_cold_ladders(store):
    """Every entry each ladder of the store holds, grown or not, is a build
    at the order of its length, every stored right side is the one a build
    at its order gives, and each ladder is charged what it holds, its
    Pascal run included."""
    for key, (ladder, bits) in store._entries.items():
        assert key == ladder_key(ladder.mu)
        held = [*ladder._powers, *ladder._derivatives, *ladder._miller.values(), *(rhs for rhs, _ in ladder.sums.values())]
        distinct = {id(entry): entry for entry in held}.values()
        assert ladder.bits == bits == sum(map(series_module._stored_bits, distinct)) + ladder._run.bits()
        entries = [
            *(("derivatives", j, entry) for j, entry in enumerate(ladder._derivatives, 1)),
            *(("powers", m, entry) for m, entry in enumerate(ladder._powers, 1)),
            *(("power", k, entry) for k, entry in ladder._miller.items()),
        ]
        base = (1, ladder.mu, 1)
        for kind, index, entry in entries:
            assert entry == cold_entry(base, kind, index, held_order(ladder, entry)), (key, kind, index)
        for (tag, k, order, *alpha), stored in ladder.sums.items():
            assert stored == cold_sum(ladder, tag, k, order, *alpha), (key, tag, k, order, *alpha)


def recorded_builds(monkeypatch):
    """The list to which every ladder built from now on appends its
    (store key, order) once built."""
    built = []
    real = _Ladder.__init__

    def spy(ladder, mu, order, store=None):
        real(ladder, mu, order, store)
        built.append((ladder_key(mu), order))

    monkeypatch.setattr(_Ladder, "__init__", spy)
    return built


def recorded_combinations(monkeypatch):
    """The list to which every weighted sum a check combines from now on
    appends its arguments."""
    combined = []
    real = identities_module.linear_combination

    def spy(*args, **kwargs):
        combined.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(identities_module, "linear_combination", spy)
    return combined


# The store keys of the ladders of the fixed bases, the mu of
# B_mu = 1/(mu e**t - 1): f = B_1, and g(t) = -B_1(-t) is read off the
# ladder of f; h = -B_(-1), and G at lambda = -1 is B_(-1) dilated.
F_KEY, H_KEY = ladder_key(1), ladder_key(-1)


class TestLadderStore:
    """Checks keep the ladders they read in the process-wide store
    ``_LADDERS`` and read every lower order off them; whatever the store
    holds, each outcome is what a cold store gives."""

    ALPHAS = [Fraction(-3, 2), 2]
    LAMBDAS = [Fraction(2, 3), 1]

    @pytest.fixture
    def store(self, monkeypatch):
        store = _Ladders(STORE_BITS)
        monkeypatch.setattr(series_module, "_LADDERS", store)
        return store

    @pytest.mark.parametrize("tag", ALL_IDENTITY_IDS)
    def test_every_order_after_an_order_106_build_reads_a_cold_outcome(self, store, cold_store, tag):
        assert all(report.passed for report in run_sweep([tag], 4, 106, self.ALPHAS, self.LAMBDAS))
        built = {key: base_order(entry[0]) for key, entry in store._entries.items()}
        assert set(built.values()) == {106}
        for order in [*range(1, 41), None]:
            args = ([tag], 4, order, self.ALPHAS, self.LAMBDAS)
            expected = sweep_outcome(independent_sweep, cold_store, *args)
            assert sweep_outcome(standalone_checks, *args) == expected, order
            assert sweep_outcome(run_sweep, *args) == expected, order
        # every order read the order-106 ladders; orders 1 and 2 left them as they were
        assert {key: base_order(entry[0]) for key, entry in store._entries.items()} == built

    @pytest.mark.parametrize("order, error", [(1, ZeroSeriesError), (2, PrecisionExhaustedError)])
    def test_orders_1_and_2_never_touch_the_store(self, store, cold_store, order, error):
        run_sweep(["I1"], 12)
        kept = dict(store._entries), store.bits
        with pytest.raises(error) as raised:
            run_sweep(["I1"], 2, order)
        expected = sweep_outcome(independent_sweep, cold_store, ["I1"], 2, order, [1], [1])
        assert expected == (error, str(raised.value))
        assert (store._entries, store.bits) == kept

    @pytest.mark.parametrize("tag", ["I7", "I8"])
    def test_the_constant_of_a_zero_sum_is_known_to_the_check_order(self, store, cold_store, tag):
        # With every weight 0 the weighted sum is the exact zero, so only
        # the base bounds the constant: the base as a build at the check's
        # order has it, not as the order-106 ladder holds it.
        run_sweep([tag], 4, 106)
        for order in (3, 4, 12, 40):
            args = (tag, 3, order, [0, 0, 0])
            with cold_store():
                expected = sweep_outcome(verify_core_identity, *args)
            assert sweep_outcome(verify_core_identity, *args) == expected, order

    @pytest.mark.parametrize("tag", ["I7", "I8"])
    def test_the_constant_past_the_window_leaves_the_window_error(self, store, cold_store, tag):
        # Below order 10 no k = 1 window holds 8 coefficients.  At order 3
        # the constant has precision 0, past the window, and the check
        # raises I5's or I6's window error under its own tag.
        paired = {"I7": "I5", "I8": "I6"}[tag]
        def cold(target, order):
            return sweep_outcome(independent_sweep, cold_store, [target], 1, order, [1], [1])

        expected = [cold(tag, order) for order in range(1, 10)]
        assert [error for error, _ in expected] == [ZeroSeriesError] + [PrecisionExhaustedError] * 8
        for order, (_, message) in enumerate(expected[2:], 3):
            assert message == cold(paired, order)[1].replace(paired, tag)
        for warm in (None, 106):
            if warm is not None:
                run_sweep(["I5", "I6", tag], 4, warm)
            assert [sweep_outcome(run_sweep, [tag], 1, order) for order in range(1, 10)] == expected

    @pytest.mark.parametrize("tag", ["I7", "I8"])
    def test_a_window_below_the_constant_compares_the_sum(self, store, tag):
        # At k = 20 and order 22 both sides are known below t**0 only:
        # the window holds the weighted sum, 20 coefficients of it.
        report = verify_core_identity(tag, 20, 22)
        assert report.passed and report.window == (-20, 0)
        weights = core_identity_coefficients(tag, 20)
        corrupted = [*weights[:-1], weights[-1] + 1]
        assert verify_core_identity(tag, 20, 22, corrupted).first_discrepancy[0] == -20

    @pytest.mark.parametrize("warm", [["I1"], ["I2"], ["I1", "I2", "P1"]])
    @pytest.mark.parametrize("tag", ["I1", "I2", "I3", "I4", "P1"])
    def test_a_corrupted_weight_reads_the_cold_discrepancy(self, store, cold_store, warm, tag):
        # Ladders at order 106 of some bases and none of others give each
        # side its own cut: a warm check reports the window, exponent and
        # both coefficients of a cold one.
        run_sweep(warm, 1, 106)
        warmed = set(store._entries)
        check = verify_core_identity if tag in CORE_IDENTITY_IDS else verify_plus_identity
        for order in (10, 20, 34):
            for k in range(1, 9):
                weights = _weights(tag, k, None)
                # one of the last 8 weights: its power starts inside even
                # the narrowest window, so the corruption shows
                m = len(weights) - 1 - (k + order) % min(len(weights), 8)
                corrupted = [*weights[:m], weights[m] + 1, *weights[m + 1 :]]
                args = (tag, k, order, corrupted)
                with cold_store():
                    expected = sweep_outcome(check, *args)
                assert sweep_outcome(check, *args) == expected, (order, k)
                assert isinstance(expected, tuple) or not expected.passed
        # the warm ladders were read, their bases not built again at a check's order
        assert {base_order(store._entries[key][0]) for key in warmed} == {106}

    # Bases recip_exp_linear reads: f, g, h and G on the grid the sweeps
    # below draw, whose keys the checks' ladders share.
    BASES = [(-1, -1, 1), (1, 1, 1)] + [
        (alpha, lam, -1) for alpha in (Fraction(-3, 2), 1, 2) for lam in (Fraction(-5, 3), Fraction(2, 3), 1)
    ]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just(run_sweep),
                    st.lists(st.sampled_from(ALL_IDENTITY_IDS), min_size=1, max_size=3),
                    st.integers(1, 6),
                    st.one_of(st.none(), st.integers(1, 30)),
                    st.lists(st.sampled_from([0, Fraction(-3, 2), 1, 2]), min_size=1, max_size=2, unique=True),
                    st.lists(st.sampled_from([0, Fraction(-5, 3), Fraction(2, 3), 1]), min_size=1, max_size=2, unique=True),
                ),
                st.builds(
                    lambda base, order: (recip_exp_linear, *base, order),
                    st.sampled_from(BASES),
                    st.integers(3, 110),
                ),
            ),
            min_size=1,
            max_size=6,
        ),
        st.sampled_from([0, 1 << 17, STORE_BITS]),
    )
    def test_any_sequence_of_requests_reads_cold_outcomes(self, cold_store, requests, budget):
        # Sweeps and base requests share the store; each reads what it
        # reads on a cold store, and the charges add up after every change.
        store = _Ladders(budget)
        for name in ("keep", "charge"):

            def checked(*args, _real=getattr(store, name)):
                _real(*args)
                assert store.bits == sum(bits for _, bits in store._entries.values()) <= budget

            setattr(store, name, checked)
        cold = {run_sweep: standalone_checks, recip_exp_linear: recip_exp_linear}
        for call, *args in requests:
            with mock.patch.object(series_module, "_LADDERS", store):
                read = sweep_outcome(call, *args)
            with cold_store():
                assert read == sweep_outcome(cold[call], *args)
            assert store.bits == sum(bits for _, bits in store._entries.values()) <= budget
            assert_cold_ladders(store)

    @staticmethod
    def charges(checks):
        """The charge of the ladders each check keeps when it runs alone."""
        sizes = []
        for check in checks:
            store = _Ladders(STORE_BITS)
            with mock.patch.object(series_module, "_LADDERS", store):
                check()
            sizes.append(store.bits)
        return sizes

    def test_the_least_recently_used_ladder_leaves_first(self):
        # I1 reads only f, G1 at alpha = 1 only 1/(2 e**t - 1) and P1 only
        # h, so each keeps one ladder.
        checks = [
            lambda: verify_core_identity("I1", 3),
            lambda: verify_general_derivative(3, 1, 2),
            lambda: verify_plus_identity("P1", 3),
        ]
        sizes = self.charges(checks)
        store = _Ladders(sum(sizes) - 1)
        with mock.patch.object(series_module, "_LADDERS", store):
            checks[0]()
            checks[1]()
            # a read makes it the most recent, and stores the sum of k = 2
            verify_core_identity("I1", 2)
            checks[2]()
        assert list(store._entries) == [F_KEY, H_KEY]
        ladder, _ = store._entries[F_KEY]
        added = series_module._stored_bits(ladder.sums["I1", 2, default_order(2)][0])
        assert store.bits == sizes[0] + added + sizes[2] <= store.budget

    def test_a_ladder_that_grows_over_the_budget_is_not_kept(self, cold_store):
        [kept] = self.charges([lambda: verify_core_identity("I1", 3)])
        store = _Ladders(kept)
        with mock.patch.object(series_module, "_LADDERS", store):
            verify_core_identity("I1", 3)
            assert list(store._entries) == [F_KEY] and store.bits == kept
            report = verify_core_identity("I1", 6, default_order(3))
        assert store._entries == {} and store.bits == 0
        assert report == independent_sweep(cold_store, ["I1"], 6, default_order(3), [1], [1])[-1]

    def test_a_longer_request_grows_the_ladder(self, store):
        # A G check at alpha != 1 reads both its sides off the ladder at
        # alpha = 1 and keeps that one alone, its right side stored there
        # without its alpha.  The longer check keeps the ladder, its entries
        # and the right sides, and grows what it reads.
        alpha, lam = Fraction(-3, 2), Fraction(2, 3)
        key = ladder_key(lam)
        verify_general_derivative(2, alpha, lam)
        assert list(store._entries) == [key]
        ladder, _ = store._entries[key]
        assert base_order(ladder) == default_order(2)
        sums = dict(ladder.sums)
        assert list(sums) == [("G1", 2, default_order(2))]
        verify_general_derivative(5, alpha, lam)
        assert list(store._entries) == [key] and store._entries[key][0] is ladder
        assert store.bits == ladder.bits
        assert sums.items() <= ladder.sums.items()
        assert base_order(ladder) == default_order(5)
        assert [held_order(ladder, entry) for entry in ladder._powers] == [default_order(5)] * 6
        assert_cold_ladders(store)

    def test_a_dilated_check_grows_the_ladder_at_alpha_one(self, store):
        # G1 at alpha = 1 keeps its powers under the key of mu = lam; a
        # longer check of the same lambda at alpha = -3/2 reads that ladder
        # and grows it in place, building no ladder of the key again.
        lam = Fraction(2, 3)
        key = ladder_key(lam)
        verify_general_derivative(4, 1, lam)
        ladder, _ = store._entries[key]
        powers = list(ladder._powers)
        assert len(powers) == 5
        verify_general_derivative(6, Fraction(-3, 2), lam)
        kept, _ = store._entries[key]
        assert kept is ladder and base_order(kept) == default_order(6)
        assert len(kept._powers) == 7 and kept._powers[0] is kept.base
        # each product the shorter check built is a prefix of the grown one
        for short, grown in zip(powers[1:], kept._powers[1:]):
            assert kept.at(grown, held_order(kept, short)) == short
        # the one ladder holds one right side per (tag, k, order), for every alpha
        assert list(store._entries) == [key]
        assert set(kept.sums) == {("G1", 4, default_order(4)), ("G1", 6, default_order(6))}
        assert_cold_ladders(store)

    @pytest.mark.parametrize("budget", [0, 1 << 17])
    @pytest.mark.parametrize(
        "targets, keys",
        [
            # g(t) = -f(-t) is read off the ladder of f
            (["I1", "I8"], [F_KEY]),
            (["G1", "G2"], [ladder_key(lam) for lam in LAMBDAS]),
        ],
    )
    def test_a_sweep_past_the_budget_builds_each_ladder_once(self, monkeypatch, targets, keys, budget):
        # The sweep holds what it reads, so a store that keeps nothing or
        # little still gives every check the ladder built at the widest
        # order, and each key, one mu for all the alphas of a lambda, is
        # built once.
        built = recorded_builds(monkeypatch)
        monkeypatch.setattr(series_module, "_LADDERS", _Ladders(budget))
        reports = run_sweep(targets, 6, alphas=self.ALPHAS, lambdas=self.LAMBDAS)
        assert all(report.passed for report in reports)
        assert sorted(built) == sorted((key, default_order(6)) for key in keys)

    def test_a_ladder_that_left_the_store_is_built_again(self, monkeypatch, cold_store):
        # A check at alpha != 1 keeps no ladder of its own: once the store
        # drops the ladder at alpha = 1, the next check builds it again
        # through the store, and reads what a cold store reads.
        alpha, lam = Fraction(-3, 2), Fraction(2, 3)
        key = ladder_key(lam)
        sizes = self.charges([lambda: verify_general_derivative(2, alpha, lam), lambda: verify_core_identity("I1", 2)])
        store = _Ladders(sum(sizes) - 1)
        with cold_store():
            expected = [verify_general_derivative(k, alpha, lam) for k in range(3, 7)]
        built = recorded_builds(monkeypatch)
        with mock.patch.object(series_module, "_LADDERS", store):
            verify_general_derivative(2, alpha, lam)
            assert list(store._entries) == [key] and built == [(key, default_order(2))]
            ladder = weakref.ref(store._entries[key][0])
            verify_core_identity("I1", 2)
            assert list(store._entries) == [F_KEY] and ladder() is None
            assert [verify_general_derivative(k, alpha, lam) for k in range(3, 7)] == expected
        assert [key for key, _ in built].count(key) >= 2
        assert_cold_ladders(store)

    G_GRID_KEYS = [ladder_key(lam) for lam in DEFAULT_LAMBDAS]

    @pytest.mark.parametrize(
        "targets, alphas, keys",
        [
            (["G1", "G2"], None, G_GRID_KEYS),
            (["I2", "I3", "I4", "I5", "I7", "I8"], None, [F_KEY]),
            (["G1", "G2"], [-1, Fraction(1, 3)], G_GRID_KEYS),
        ],
    )
    def test_every_ladder_a_sweep_reads_is_at_alpha_one(self, monkeypatch, store, targets, alphas, keys):
        # A G grid and the tags on g read the ladders at alpha = 1 alone:
        # the ladders built and stored are one per mu, whatever the alphas
        # and signs.
        built = recorded_builds(monkeypatch)
        assert all(report.passed for report in run_sweep(targets, 6, None, alphas))
        assert sorted(store._entries) == sorted(key for key, _ in built) == sorted(keys)

    @pytest.mark.parametrize(
        "sweep, reductions",
        [(lambda: run_sweep(ALL_IDENTITY_IDS, 6), ()), (lambda: verify_target("all", 6), REDUCTION_LAMBDAS)],
        ids=["run_sweep", "verify all"],
    )
    def test_every_tag_on_the_default_grid_builds_five_ladders(self, monkeypatch, store, sweep, reductions):
        # The bases are f = B_1, g(t) = -B_1(-t), h = -B_(-1) and
        # G = B_lam(alpha t) at the five default lambdas: five mu, each
        # built once.  f and g share the ladder of B_1, which G at
        # lambda = 1 reads too, and h and G at lambda = -1 that of B_(-1).
        # Beside them the store keeps the builds of the reduction checks,
        # one entry per (n, lambda) of their grid, under keys that start
        # with a string.
        built = recorded_builds(monkeypatch)
        rows = sweep()
        assert rows and all(row.passed for row in rows)
        keys = [ladder_key(mu) for mu in (1, -1, Fraction(-5, 3), Fraction(1, 2), 2)]
        assert sorted(built) == sorted((key, default_order(6)) for key in keys)
        ladders = [key for key in store._entries if not isinstance(key[0], str)]
        assert sorted(ladders) == sorted(keys)
        assert set(store._entries) - set(ladders) == {
            ("reductions", n, lam.numerator, lam.denominator) for n in range(7) for lam in reductions
        }
        right = {key: {tag for tag, *_ in store._entries[key][0].sums} for key in keys}
        assert right[F_KEY] == {*CORE_IDENTITY_IDS, *GENERAL_IDENTITY_IDS}
        assert right[H_KEY] == {*PLUS_IDENTITY_IDS, *GENERAL_IDENTITY_IDS}
        assert all(right[key] == set(GENERAL_IDENTITY_IDS) for key in keys[2:])

    def test_a_g_grid_combines_one_sum_per_lambda(self, monkeypatch, store):
        # A correct spec's powers of alpha cancel the chain rule's, so the
        # five alphas of a (tag, k, order, lambda) share one right side:
        # the default 5 x 5 grid combines one sum per (tag, k, lambda).
        combined = recorded_combinations(monkeypatch)
        reports = run_sweep(["G1", "G2"], 6)
        assert len(reports) == 2 * 6 * 25 and all(report.passed for report in reports)
        assert len(combined) == 2 * 6 * 5
        assert set(store._entries) == {ladder_key(lam) for lam in DEFAULT_LAMBDAS}
        for ladder, _ in store._entries.values():
            assert set(ladder.sums) == {(tag, k, default_order(k)) for tag in ("G1", "G2") for k in range(1, 7)}
        assert_cold_ladders(store)

    @pytest.mark.parametrize("check", [verify_general_derivative, verify_general_power])
    def test_a_new_alpha_on_a_stored_sum_combines_nothing(self, monkeypatch, store, check):
        lam = Fraction(2, 3)
        points = [(3, None), (5, 20)]
        for k, order in points:
            assert check(k, 1, lam, order).passed
        combined = recorded_combinations(monkeypatch)
        for alpha in (Fraction(-3, 2), -1, Fraction(1, 2), 2):
            for k, order in points:
                assert check(k, alpha, lam, order).passed
        assert combined == []

    @pytest.mark.parametrize("tag", ["G1", "G2"])
    def test_a_correct_g_check_does_no_arithmetic_on_alpha(self, store, tag):
        # Every power of alpha on a correct spec adds to 0 as an integer,
        # so a check that combines its sum still never computes with alpha.
        class Inert(Fraction):
            def refuse(self, *args):
                raise AssertionError("arithmetic on alpha")

            __add__ = __radd__ = __sub__ = __rsub__ = __neg__ = refuse
            __mul__ = __rmul__ = __truediv__ = __rtruediv__ = __pow__ = __rpow__ = refuse

        for k in range(1, 7):
            assert identities_module._verify(tag, k, Inert(-3, 2), Fraction(2, 3), None, None).passed

    # A power of alpha one off on every term: k + 1 on G1, -m on G2.
    WRONG_POWERS = {"G1": lambda k, m: k + 1, "G2": lambda k, m: -m}

    @pytest.mark.parametrize("first", ["correct", "wrong"])
    @pytest.mark.parametrize("tag", ["G1", "G2"])
    def test_a_wrong_power_of_alpha_fails_at_every_alpha_it_shows_at(self, monkeypatch, store, tag, first):
        # A wrong power keys its sum on alpha, so it fails at every alpha
        # whose power of it is not 1: after a correct check stored the
        # shared sum, and after the wrong check stored its own at alpha = 1.
        lam = Fraction(2, 3)
        check = verify_general_derivative if tag == "G1" else verify_general_power
        right = _SPECS[tag]
        wrong = (*right[:5], self.WRONG_POWERS[tag])
        for k, order in [(2, None), (5, 20)]:
            if first == "correct":
                assert check(k, 2, lam, order).passed
            monkeypatch.setitem(_SPECS, tag, wrong)
            for alpha in (1, 2, Fraction(-3, 2), -1, Fraction(1, 2)):
                assert check(k, alpha, lam, order).passed == (alpha == 1), alpha
            assert_cold_ladders(store)
            monkeypatch.setitem(_SPECS, tag, right)
            for alpha in (2, 1, Fraction(-3, 2)):
                assert check(k, alpha, lam, order).passed, alpha

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    @pytest.mark.parametrize("tag", ["I2", "I3"])
    def test_a_discrepancy_on_g_reports_the_coefficients_at_alpha(self, store, tag, k):
        # The left side g^(k) is compared at alpha = 1 and sign 1, as f^(k):
        # g^(k)(t) = (-1)**(k+1) f^(k)(-t), so coefficient e of g^(k) is
        # (-1)**(k+e+1) times that of f^(k).  A failed check still reports
        # those of g^(k) built directly and of the corrupted weighted sum.
        order = default_order(k)
        weights = core_identity_coefficients(tag, k)
        corrupted = [*weights[:-1], weights[-1] + 1]
        report = verify_core_identity(tag, k, order, corrupted)
        g = recip_exp_linear(-1, -1, 1, order)
        lhs = functools.reduce(lambda s, _: s.derivative(), range(k), g)
        base = g if tag == "I2" else recip_exp_linear(1, 1, -1, order)
        rhs = linear_combination([base**m for m in range(1, k + 2)], corrupted)
        e = lhs.first_difference(rhs, *report.window)
        assert not report.passed and e is not None
        assert report.first_discrepancy == (e, lhs.coeff(e), rhs.coeff(e))

    def test_oracles_read_the_ladder_of_a_sweep(self, monkeypatch, store, cold_store):
        # The sweep keeps f = 1/(e**t - 1) at order 34 under the key of
        # mu = 1, which bernoulli_oracle(n) reads at order n + 3.
        run_sweep(["I1"], 12)
        with cold_store():
            expected = [bernoulli_oracle(n) for n in range(32)]
        built = []
        real = series_module._source_reciprocal
        monkeypatch.setattr(
            series_module, "_source_reciprocal", lambda *args: built.append(args) or real(*args)
        )
        assert [bernoulli_oracle(n) for n in range(32)] == expected
        assert built == []
        assert list(store._entries) == [F_KEY] and base_order(store._entries[F_KEY][0]) == default_order(12)

    def test_a_longer_base_request_grows_a_ladder_of_the_checks(self, store, cold_store):
        # G1 at alpha = 1 and lambda = 2 keeps its ladder under the key of
        # mu = 2, which apostol_bernoulli_oracle(n, 2) reads at order
        # n + 3: at n = 60 it builds the base again and keeps the powers,
        # which grow only when a check reads them longer.
        verify_general_derivative(4, 1, 2)
        key = ladder_key(2)
        ladder, _ = store._entries[key]
        assert base_order(ladder) == default_order(4) and len(ladder._powers) == 5
        powers = ladder._powers[1:]
        value = apostol_bernoulli_oracle(60, 2)
        with cold_store():
            assert value == apostol_bernoulli_oracle(60, 2)
        grown, _ = store._entries[key]
        assert grown is ladder and base_order(ladder) == 63 and ladder._powers[1:] == powers
        for order in (None, 3, 12, 40, 63, 70):
            for k in range(1, 7):
                for check in (verify_general_derivative, verify_general_power):
                    args = (k, 1, 2, order)
                    with cold_store():
                        expected = sweep_outcome(check, *args)
                    assert sweep_outcome(check, *args) == expected, (check, order, k)
        assert_cold_ladders(store)

    # The power-kind tags and the bases of their left sides; G2 at three
    # points, (1, 1) among them, whose G is f.
    POWER_CHECKS = [(tag, [1], [1]) for tag in ("I5", "I6", "I7", "I8", "P2")] + [
        ("G2", [alpha], [lam]) for alpha, lam in ((Fraction(-3, 2), Fraction(2, 3)), (Fraction(1, 2), Fraction(-5, 3)), (1, 1))
    ]

    @pytest.mark.parametrize("tag, alphas, lambdas", POWER_CHECKS)
    def test_a_stored_power_is_a_fresh_power_on_every_compared_window(self, store, tag, alphas, lambdas):
        # Each power is built at its check's order and grows as the
        # orders rise; every read is a power of a fresh base.
        assert all(report.passed for report in run_sweep([tag], 6, None, alphas, lambdas))
        _, mu, _ = _SPECS[tag][0] or (None, lambdas[0], 1)
        ladder = store._entries[ladder_key(mu)][0]
        assert base_order(ladder) == default_order(6) and sorted(ladder._miller) == list(range(1, 7))
        assert [held_order(ladder, ladder._miller[k]) for k in range(2, 7)] == list(map(default_order, range(2, 7)))
        for order in range(3, default_order(6) + 1):
            for k in range(1, 7):
                fresh = series_module._build_base(Fraction(mu), order) ** k
                assert ladder.at(ladder.power(k, order), order) == fresh, (order, k)

    def test_a_second_power_sweep_runs_no_miller_pass(self, monkeypatch, store):
        tags = ["I5", "I6", "I7", "I8", "P2"]
        first = run_sweep(tags, 12)
        passes = []
        real = series_module._power
        monkeypatch.setattr(series_module, "_power", lambda unit, den, k: passes.append(k) or real(unit, den, k))
        assert run_sweep(tags, 12) == first
        assert [k for k in passes if k >= 1] == []
        # the ladders of f, which g reads too, and h each hold base**1 ..
        # base**12 and the right sides read off them, and every entry held
        # is charged once
        assert set(store._entries) == {F_KEY, H_KEY}
        right = {F_KEY: ["I5", "I6", "I7", "I8"], H_KEY: ["P2"]}
        for key, (ladder, bits) in store._entries.items():
            assert sorted(ladder._miller) == list(range(1, 13))
            assert set(ladder.sums) == {(tag, k, default_order(k)) for tag in right[key] for k in range(1, 13)}
            sums = [rhs for rhs, _ in ladder.sums.values()]
            entries = [ladder.base, *ladder._powers, *ladder._derivatives, *ladder._miller.values(), *sums]
            distinct = {id(entry): entry for entry in entries}.values()
            assert bits == ladder.bits == sum(map(series_module._stored_bits, distinct))
        assert store.bits == sum(bits for _, bits in store._entries.values())

    def test_a_second_sweep_only_compares(self, monkeypatch, store):
        # Every check of the first sweep stores its right side in its
        # ladder, so the same sweep again combines no weighted sum.
        first = run_sweep(ALL_IDENTITY_IDS, 6, None, self.ALPHAS, self.LAMBDAS)
        combined = recorded_combinations(monkeypatch)
        assert run_sweep(ALL_IDENTITY_IDS, 6, None, self.ALPHAS, self.LAMBDAS) == first
        assert combined == []

    @pytest.mark.parametrize("tag, k, order", [("I3", 5, 20), ("I8", 5, 20), ("I8", 4, None)])
    def test_a_corrupted_check_between_clean_ones_reads_no_stored_sum(self, store, cold_store, tag, k, order):
        # A check with its own weights neither reads the stored right side
        # of its (tag, k, order) nor replaces it.
        run_sweep([tag], 8)
        weights = _weights(tag, k, None)
        corrupted = [*weights[:-1], weights[-1] + 1]
        with cold_store():
            expected = verify_core_identity(tag, k, order, corrupted)
        assert not expected.passed
        assert verify_core_identity(tag, k, order).passed
        assert verify_core_identity(tag, k, order, corrupted) == expected
        assert verify_core_identity(tag, k, order).passed

    @pytest.mark.parametrize("kernel, corrupted", [("_power", "power"), ("_lcm_product", "derivative")])
    def test_a_wrong_kernel_fails_only_the_tags_whose_route_runs_it(self, monkeypatch, store, kernel, corrupted):
        # Miller's recurrence builds the power-kind left sides, and the
        # chain of products the right sides of the derivative kind: one
        # wrong leading coefficient out of either fails the kind that reads
        # it and no other.  base**1 is the base itself, so a power-kind
        # check at k = 1 runs no Miller pass.
        real = getattr(series_module, kernel)

        def wrong(*args):
            nums, den = real(*args)
            if kernel == "_power" and args[2] < 1:
                return nums, den
            return [nums[0] + 1, *nums[1:]], den

        monkeypatch.setattr(series_module, kernel, wrong)
        for tag, (_, kind, *_) in _SPECS.items():
            for report in run_sweep([tag], 4, None, [Fraction(-3, 2)], [Fraction(2, 3)]):
                fails = kind == corrupted and (kind == "derivative" or report.k > 1)
                assert report.passed != fails, (tag, report.k)
