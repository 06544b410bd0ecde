"""Kronecker algebra, eigenvalue certificates, PD sampling, matrix files."""

import ast
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EDGE_SEEDS, random_hermitian, stack_of

import hlawka
from hlawka import linalg
from hlawka.errors import BudgetError, InputError
from hlawka.linalg import (
    HermitianMatrix,
    HermitianStack,
    Verdict,
    _draws,
    _generators,
    _raw_draws,
    _seed_states,
    band_verdict,
    dump_matrix,
    hermitian_eigenvalues,
    kron,
    load_hermitian,
    load_matrix,
    loewner_geq,
    min_eigenvalue,
    parse_matrix,
    psd_certificate,
    random_pd,
    save_matrix,
    tensor_power,
)
from hlawka.util import derive_seed


class TestHermitianMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(InputError):
            HermitianMatrix(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            HermitianMatrix([[np.nan, 0], [0, 1]])
        with pytest.raises(InputError):
            HermitianMatrix([[np.inf, 0], [0, 1]])

    def test_rejects_non_hermitian(self):
        with pytest.raises(InputError):
            HermitianMatrix([[1, 2], [3, 4]])

    def test_accepts_and_symmetrizes_near_hermitian(self):
        eps = 1e-14
        h = HermitianMatrix([[1, 1 + 2j], [1 - 2j + eps * 1j, 3]])
        assert np.array_equal(h.array, h.array.conj().T)
        assert np.all(h.array.diagonal().imag == 0.0)

    def test_array_is_read_only(self):
        h = HermitianMatrix.identity(2)
        with pytest.raises(ValueError):
            h.array[0, 0] = 5.0

    def test_entries_near_the_largest_double_stay_finite(self):
        # X/2 + X*/2, not (X + X*)/2, which overflows to inf+nanj.
        h = HermitianMatrix(np.full((2, 2), 1e308))
        assert np.isfinite(h.array).all()
        assert np.array_equal(h.array, np.full((2, 2), 1e308))

    def test_is_a_stack_of_one(self, rng):
        h = random_hermitian(rng, 3)
        assert isinstance(h, HermitianStack)
        assert len(h) == 1 and h.digests == (h.digest,)
        assert h.array.shape == (3, 3) and not h.array.flags.writeable
        assert h[0].array.tobytes() == h.array.tobytes()

    def test_arithmetic_stays_exactly_hermitian(self, rng):
        a = random_hermitian(rng, 4)
        b = random_hermitian(rng, 4)
        for result in (a + b, a - b, 2.5 * a, -a):
            assert np.array_equal(result.array, result.array.conj().T)


class TestKron:
    def test_identity_factor_gives_block_diagonal(self, rng):
        a = random_hermitian(rng, 3).array
        out = kron(np.eye(2), a)
        expected = np.zeros((6, 6), dtype=complex)
        expected[:3, :3] = a
        expected[3:, 3:] = a
        assert np.array_equal(out, expected)

    def test_dimension_product(self, rng):
        out = kron(random_hermitian(rng, 2), random_hermitian(rng, 3))
        assert out.shape == (6, 6)

    def test_diagonal_case(self):
        out = kron(np.diag([1.0, 2.0]), np.diag([3.0, 5.0]))
        assert np.array_equal(out, np.diag([3.0, 5.0, 6.0, 10.0]).astype(complex))

    def test_stack_of_several_is_refused(self, rng):
        stack = stack_of([random_hermitian(rng, 2) for _ in range(2)])
        with pytest.raises(InputError, match="expected one matrix, got a stack of 2"):
            kron(stack, stack[0])

    def test_budget_error(self, rng):
        a = random_hermitian(rng, 8)
        with pytest.raises(BudgetError):
            kron(a, a, max_dim=63)

    def test_mixed_product_property(self, rng):
        # kron(A,B) @ kron(C,D) == kron(A@C, B@D) for random 2x2 blocks
        for _ in range(50):
            a, b, c, d = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(4))
            left = kron(a, b) @ kron(c, d)
            right = kron(a @ c, b @ d)
            rel = np.linalg.norm(left - right) / np.linalg.norm(right)
            assert rel < 1e-12

    def test_spectrum_is_pairwise_products(self, rng):
        for _ in range(20):
            a = random_hermitian(rng, 3)
            b = random_hermitian(rng, 2)
            got = np.sort(np.linalg.eigvalsh(kron(a, b)))
            ea, eb = hermitian_eigenvalues(a), hermitian_eigenvalues(b)
            expected = np.sort(np.outer(ea, eb).ravel())
            scale = max(1.0, np.abs(expected).max())
            assert np.max(np.abs(got - expected)) < 1e-9 * scale

    def test_positivity_closure(self):
        a = random_pd(3, (11,))[0]
        b = random_pd(2, (12,))[0]
        assert min_eigenvalue(HermitianMatrix(kron(a, b))) > 0


class TestTensorPower:
    def test_power_one_is_identity_operation(self, rng):
        a = random_hermitian(rng, 3)
        assert np.array_equal(tensor_power(a, 1).array, a.array)

    def test_diagonal_square(self):
        out = tensor_power(HermitianMatrix.diagonal([1.0, 2.0]), 2)
        assert np.array_equal(out.array, np.diag([1.0, 2.0, 2.0, 4.0]).astype(complex))

    def test_matches_left_associated_kron(self, rng):
        a = random_hermitian(rng, 2)
        expected = np.kron(np.kron(a.array, a.array), a.array)
        assert np.array_equal(tensor_power(a, 3).array, expected)

    def test_budget_boundary(self):
        a = HermitianMatrix.identity(2)
        assert tensor_power(a, 12, max_dim=4096).dim == 4096
        with pytest.raises(BudgetError):
            tensor_power(a, 13, max_dim=4096)

    def test_stack_of_several_is_refused_and_a_stack_of_one_is_a_matrix(self, rng):
        stack = stack_of([random_hermitian(rng, 2) for _ in range(3)])
        with pytest.raises(InputError, match="expected one matrix, got a stack of 3"):
            tensor_power(stack, 2)
        assert tensor_power(stack[:1], 2).array.tobytes() == tensor_power(stack[0], 2).array.tobytes()

    def test_power_must_be_positive(self, rng):
        with pytest.raises(InputError):
            tensor_power(random_hermitian(rng, 2), 0)


class TestEigenvalues:
    def test_diagonal(self):
        assert min_eigenvalue(HermitianMatrix.diagonal([3.0, -1.0, 2.0])) == -1.0

    def test_identity(self):
        assert min_eigenvalue(HermitianMatrix.identity(5)) == pytest.approx(1.0, abs=1e-14)

    def test_two_by_two(self):
        assert min_eigenvalue(HermitianMatrix([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(1.0, abs=1e-12)

    def test_against_characteristic_polynomial_2x2(self, rng):
        # Independent closed-form root of the characteristic polynomial.
        for _ in range(200):
            h = random_hermitian(rng, 2)
            a = h.array[0, 0].real
            c = h.array[1, 1].real
            b = h.array[0, 1]
            lo = (a + c) / 2 - math.sqrt(((a - c) / 2) ** 2 + abs(b) ** 2)
            scale = max(1.0, abs(a), abs(c), abs(b))
            assert abs(min_eigenvalue(h) - lo) < 1e-12 * scale

    def test_deterministic(self, rng):
        h = random_hermitian(rng, 6)
        first = hermitian_eigenvalues(h)
        for _ in range(3):
            assert np.array_equal(hermitian_eigenvalues(h), first)


class TestLoewner:
    def test_equality(self, rng):
        a = random_hermitian(rng, 3)
        cert = loewner_geq(a, a, 1e-9)
        assert cert.verdict is Verdict.EQUALITY
        assert cert.ok

    def test_holds(self):
        two = 2.0 * HermitianMatrix.identity(3)
        cert = loewner_geq(two, HermitianMatrix.identity(3), 1e-9)
        assert cert.verdict is Verdict.HOLDS
        assert cert.min_eigenvalue == pytest.approx(1.0, abs=1e-12)

    def test_fails(self):
        cert = loewner_geq(HermitianMatrix.identity(3), 2.0 * HermitianMatrix.identity(3), 1e-9)
        assert cert.verdict is Verdict.FAILS
        assert cert.min_eigenvalue == pytest.approx(-1.0, abs=1e-12)
        assert not cert.ok

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            loewner_geq(HermitianMatrix.identity(2), HermitianMatrix.identity(3))

    def test_verdict_consistent_with_invariants(self, rng):
        for trial in range(50):
            d = random_hermitian(rng, 3)
            cert = psd_certificate(d, 1e-8)
            band = cert.tolerance * max(1.0, cert.scale)
            eigs = hermitian_eigenvalues(d)
            if cert.verdict is Verdict.EQUALITY:
                assert np.max(np.abs(eigs)) <= band
            assert (cert.min_eigenvalue >= -band) == (cert.verdict is not Verdict.FAILS)

    def test_superadditivity_of_tensor_powers(self):
        a = random_pd(2, (101,))[0]
        b = random_pd(2, (102,))[0]
        for p in range(1, 5):
            lhs = tensor_power(a + b, p)
            rhs = tensor_power(a, p) + tensor_power(b, p)
            assert loewner_geq(lhs, rhs).ok


class TestBandVerdict:
    # (lo, largest, scale, tol) -> verdict; the band is tol * max(1, scale).
    @pytest.mark.parametrize("lo, largest, scale, tol, verdict", [
        (-0.5, 0.5, 100.0, 1e-2, Verdict.EQUALITY),   # inside the band, 1.0
        (-1.0, 1.0, 100.0, 1e-2, Verdict.EQUALITY),   # both edges exactly on the band
        (-1.0, 1.5, 100.0, 1e-2, Verdict.HOLDS),      # lo on the lower edge
        (-1.5, 1.5, 100.0, 1e-2, Verdict.FAILS),      # lo below the lower edge
        (0.5, 2.0, 100.0, 1e-2, Verdict.HOLDS),       # positive, beyond the band
        (-0.1, 0.1, 0.5, 0.1, Verdict.EQUALITY),      # scale < 1 is clamped: band 0.1
        (-0.2, 0.2, 0.5, 0.1, Verdict.FAILS),         # not 0.05 or 0.5
        (-0.1, 0.1, 0.0, 0.1, Verdict.EQUALITY),
        (math.nan, math.nan, 1.0, 1e-8, Verdict.FAILS),
        (math.nan, math.nan, math.nan, 1e-8, Verdict.FAILS),
        (-2.0, 2.0, math.nan, 1.0, Verdict.FAILS),    # max(1, nan) is 1
    ])
    def test_table(self, lo, largest, scale, tol, verdict):
        assert band_verdict(lo, largest, scale, tol) is verdict

    def test_certificate_is_the_band_verdict_of_its_spectrum(self, rng):
        for _ in range(20):
            d = random_hermitian(rng, 3)
            cert = psd_certificate(d, 1e-2)
            eigs = hermitian_eigenvalues(d)
            assert cert.verdict is band_verdict(
                eigs[0], np.max(np.abs(eigs)), cert.scale, cert.tolerance)

    def test_overflowed_tensor_power_is_refused(self):
        with np.errstate(over="ignore"):
            square = tensor_power(HermitianMatrix.diagonal([1e200, 1.0]), 2)  # 1e400 is inf
        with pytest.raises(InputError, match="overflow"):
            psd_certificate(square)


class TestRandomPd:
    def test_positive_definite(self):
        for seed in range(20):
            h = random_pd(4, (seed,))[0]
            assert min_eigenvalue(h) > 0

    def test_bit_identical_for_same_seed(self):
        a, b = random_pd(5, (987654321,), 50.0), random_pd(5, (987654321,), 50.0)
        assert a.array.tobytes() == b.array.tobytes()

    def test_condition_number_tracks_target(self):
        for seed in (1, 2, 3, 4, 5):
            h = random_pd(3, (seed,), 100.0)[0]
            eigs = hermitian_eigenvalues(h)
            ratio = eigs[-1] / eigs[0]
            assert 50.0 <= ratio <= 200.0

    def test_config_validation(self):
        with pytest.raises(InputError):
            random_pd(0, (1,))
        with pytest.raises(InputError):
            random_pd(2, (1,), 0.5)
        with pytest.raises(InputError):
            random_pd(2, (-1,))
        with pytest.raises(InputError):
            random_pd(2, (1.0,))
        for target in (math.inf, math.nan):
            with pytest.raises(InputError, match="condition_target"):
                random_pd(2, (1,), target)
        with pytest.raises(InputError, match="seed"):
            random_pd(2, np.array([1.0, 2.0]))

    def test_every_seed_spelling_gives_one_stack(self, monkeypatch):
        # Past a hash block boundary, with both ends of the seed range.
        monkeypatch.setattr(linalg, "_SEED_BLOCK", 4)
        seeds = EDGE_SEEDS + (3, 2**40)
        assert len(seeds) > linalg._SEED_BLOCK and {0, 2**64 - 1} <= set(seeds)
        stacks = [random_pd(3, spelled, 20.0).array.tobytes()
                  for spelled in (seeds, list(seeds), np.array(seeds, dtype=np.uint64))]
        assert stacks[0] == stacks[1] == stacks[2]

    def test_seed_states_match_numpy_seed_sequence(self):
        seeds = EDGE_SEEDS + tuple(derive_seed(2026, i) for i in range(10_000))
        expected = np.array([np.random.SeedSequence(s).generate_state(4, np.uint64) for s in seeds])
        assert _seed_states(seeds).tobytes() == expected.tobytes()

    def test_generators_match_numpy_across_blocks(self, monkeypatch):
        monkeypatch.setattr(linalg, "_SEED_BLOCK", 3)
        seeds = EDGE_SEEDS + (3, 2**40, derive_seed(2026, 0))
        assert len(seeds) == 10 and {0, 2**64 - 1} <= set(seeds)
        for rng, seed in zip(_generators(np.array(seeds, dtype=np.uint64)), seeds, strict=True):
            oracle = np.random.default_rng(seed)
            assert rng.standard_normal(5).tobytes() == oracle.standard_normal(5).tobytes()
            assert rng.uniform(-10.0, 10.0, 3).tobytes() == oracle.uniform(-10.0, 10.0, 3).tobytes()

    def test_only_generators_builds_a_generator(self):
        # Every seeded stream of the package goes through one constructor.
        src = Path(hlawka.__file__).resolve().parent
        tree = ast.parse((src / "linalg.py").read_text(encoding="utf-8"))
        body = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "_generators")
        inside = range(body.lineno, body.end_lineno + 1)
        hits = [(path.name, number)
                for path in sorted(src.glob("*.py"))
                for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
                if "default_rng" in line or "Generator(" in line]
        assert [hit for hit in hits if not (hit[0] == "linalg.py" and hit[1] in inside)] == []
        assert hits  # the guard sees the one constructor

    def test_only_chunks_splits_the_trials(self):
        # One chunker sizes every route's chunks and derives its trial seeds:
        # no other function of the harness loops over cfg.trials or derives
        # seeds from cfg.seed, by either derivation, and one count sizes
        # them: only _trial_bytes counts a build's or a row's bytes.
        src = Path(hlawka.__file__).resolve().parent
        tree = ast.parse((src / "harness.py").read_text(encoding="utf-8"))

        def parts(node) -> set[str]:
            return {ast.unparse(part) for part in ast.walk(node)}

        loops, derivations, counts = set(), set(), set()
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                loop = isinstance(node, (ast.For, ast.comprehension))
                if loop and "cfg.trials" in parts(node.iter):
                    loops.add(func.name)
                if not isinstance(node, ast.Call):
                    continue
                called = ast.unparse(node.func).split(".")[-1]
                if (called in ("derive_seed", "derive_seeds")
                        and node.args and ast.unparse(node.args[0]) == "cfg.seed"):
                    derivations.add(func.name)
                if called in ("working_set", "row_bytes"):
                    counts.add(func.name)
        assert loops == derivations == {"_chunks"}
        assert counts == {"_trial_bytes"}
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for alias in node.names}
        assert "derive_seeds" in imported and "derive_seed" not in imported

    def test_one_record_judges_every_verdict(self):
        # Every verdict goes through one record: only its code property and
        # band_verdict, the one-value form, call band_verdicts, and the record
        # is the one Sequence of the modules that held four of them.
        src = Path(hlawka.__file__).resolve().parent
        callers, sequences = set(), set()

        def visit(node, scope: str, module: str) -> None:
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    inner = f"{scope}.{child.name}" if scope else child.name
                if isinstance(child, ast.ClassDef) and module in ("linalg", "scalar", "harness"):
                    if any(ast.unparse(base).split(".")[-1] == "Sequence" for base in child.bases):
                        sequences.add(f"{module}.{child.name}")
                if (isinstance(child, ast.Call)
                        and ast.unparse(child.func).split(".")[-1] == "band_verdicts"):
                    callers.add(f"{module}.{scope}")
                visit(child, inner, module)

        for path in sorted(src.glob("*.py")):
            visit(ast.parse(path.read_text(encoding="utf-8")), "", path.stem)
        assert callers == {"linalg.VerdictRecord.code", "linalg.band_verdict"}
        assert sequences == {"linalg.VerdictRecord"}

    def test_importing_the_cli_leaves_numpy_random_to_the_first_sample(self):
        # Importing numpy.random takes 12-35 ms on a 2-vCPU host; only a
        # sample drawn by its generator needs it, here one of 50 draws, past
        # the array pass's.
        script = (
            "import sys\n"
            "import numpy\n"
            "before = 'numpy.random' in sys.modules\n"
            "import hlawka.cli\n"
            "after_import = 'numpy.random' in sys.modules\n"
            "from hlawka.linalg import random_pd\n"
            "random_pd(5, (1,))\n"
            "print(before, after_import, 'numpy.random' in sys.modules)\n"
        )
        src = str(Path(hlawka.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n" + script],
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout.split()
        if out[0] == "True":
            pytest.skip("this numpy imports numpy.random with numpy itself")
        assert out[1:] == ["False", "True"]


class TestDraws:
    """The array pass against numpy's own generator, seed by seed."""

    SEEDS = st.lists(st.sampled_from(EDGE_SEEDS) | st.integers(0, 2**64 - 1),
                     min_size=1, max_size=12)

    @staticmethod
    def rows(seeds, draw) -> list[bytes]:
        return [draw(np.random.default_rng(seed)).tobytes() for seed in seeds]

    @given(seeds=SEEDS, count=st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_raw_and_uniform_draws(self, seeds, count):
        array = np.array(seeds, dtype=np.uint64)
        if count <= linalg._ARRAY_DRAWS:
            raw = _raw_draws(linalg._hashed(array), count)
            assert [row.tobytes() for row in raw] == [
                np.random.PCG64(seed).random_raw(count).tobytes() for seed in seeds]
        draws = _draws(array, count, "uniform", -10.0, 10.0)
        assert [row.tobytes() for row in draws] == self.rows(
            seeds, lambda rng: rng.uniform(-10.0, 10.0, count))

    @given(seeds=SEEDS, count=st.integers(1, 40),
           radius=st.sampled_from([0.0, 0.5, 4.0]) | st.floats(0.0, 1e300))
    @settings(max_examples=60, deadline=None)
    def test_centred_offsets(self, seeds, count, radius):
        draws = _draws(np.array(seeds, dtype=np.uint64), count, "uniform", -radius, radius)
        assert [row.tobytes() for row in draws] == self.rows(
            seeds, lambda rng: rng.uniform(-radius, radius, count))

    @given(seeds=SEEDS, count=st.integers(1, 2 * linalg._ARRAY_DRAWS + 1),
           cut=st.sampled_from([1, 2, 8]))
    @settings(max_examples=80, deadline=None)
    def test_standard_normal_with_forced_fallback_rows(self, seeds, count, cut):
        # Dividing every ki by cut (1 leaves them) sends more draws off the
        # fast path, so more rows are drawn by their generators, and past
        # the crossover every row is; the stream stays numpy's.
        ki, signed_wi = linalg._ziggurat()
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(linalg, "_ziggurat", lambda: (ki // np.uint64(cut), signed_wi))
            draws = _draws(np.array(seeds, dtype=np.uint64), count, "normal")
        assert [row.tobytes() for row in draws] == self.rows(
            seeds, lambda rng: rng.standard_normal(count))

    def test_every_fallback_sample_is_drawn_by_generators(self, monkeypatch):
        seeds = np.array([derive_seed(11, i) for i in range(400)], dtype=np.uint64)
        drawn = []

        def recorded(some, states=None):
            drawn.append(some.tolist())
            return _generators(some, states)

        monkeypatch.setattr(linalg, "_generators", recorded)
        ki, _ = linalg._ziggurat()
        for count in (8, linalg._ARRAY_DRAWS, linalg._ARRAY_DRAWS + 1):
            drawn.clear()
            normals = _draws(seeds, count, "normal")
            if count <= linalg._ARRAY_DRAWS:
                raw = _raw_draws(linalg._hashed(seeds), count)
                off = ((raw >> np.uint64(9)) & np.uint64(2**52 - 1) >= ki[raw & np.uint64(511)])
                expected = seeds[off.any(axis=1)].tolist()
                assert 0 < len(expected) < len(seeds)
            else:
                expected = seeds.tolist()
            assert drawn == [expected]
            assert [row.tobytes() for row in normals] == self.rows(
                seeds.tolist(), lambda rng: rng.standard_normal(count))
            drawn.clear()
            _draws(seeds, count, "uniform", -1.0, 1.0)
            assert drawn == ([] if count <= linalg._ARRAY_DRAWS else [seeds.tolist()])

    def test_the_fast_path_takes_a_magnitude_below_ki(self, monkeypatch):
        # Raw draws one below each layer's bound give +-rabs * wi; at the
        # bound they leave the fast path for their generators.
        ki, signed_wi = linalg._ziggurat()
        layers = np.flatnonzero(ki).astype(np.uint64)
        rabs = np.stack([ki[layers] - np.uint64(1), ki[layers]], axis=1).ravel()
        raw = (rabs << np.uint64(9) | np.repeat(layers, 2))[:, np.newaxis]
        monkeypatch.setattr(linalg, "_raw_draws", lambda words, count: raw.copy())
        drawn = []
        monkeypatch.setattr(linalg, "_generators",
                            lambda some, states: drawn.append(some.tolist()) or iter(()))
        seeds = np.arange(len(raw), dtype=np.uint64)
        out = _draws(seeds, 1, "normal")
        assert drawn == [seeds[1::2].tolist()]
        fast = (rabs[0::2] * signed_wi[layers])[:, np.newaxis]
        assert out[0::2].tobytes() == fast.tobytes()

    def test_tables_re_recorded_through_numpy(self):
        # A PCG64 state of 0 with increment r makes r the next raw draw, so
        # each table entry is read back from numpy's own standard_normal: at
        # rabs = 1 a layer's signed width exactly, and the fast path takes
        # one raw draw at rabs = ki - 1 and leaves it, taking more, at ki.
        bits = np.random.PCG64(0)
        rng = np.random.Generator(bits)
        ki, signed_wi = linalg._ziggurat()

        def normal(layer, rabs) -> tuple[float, bool]:
            raw = rabs << 9 | layer
            bits.state = {"bit_generator": "PCG64", "state": {"state": 0, "inc": raw},
                          "has_uint32": 0, "uinteger": 0}
            value = rng.standard_normal()
            return value, bits.state["state"]["state"] == raw

        assert len(ki) == len(signed_wi) == 512
        for layer in range(512):
            bound = int(ki[layer])
            assert bound < 2**52 and bound == int(ki[layer % 256])
            value, fast = normal(layer, 1)
            assert np.float64(value).tobytes() == signed_wi[layer].tobytes()
            assert signed_wi[layer] == -signed_wi[layer ^ 256]
            if bound:
                value, fast = normal(layer, bound - 1)
                assert fast and value == (bound - 1) * signed_wi[layer]
            assert not normal(layer, bound)[1]

    def test_jump_constants_match_the_lcg(self):
        mult, powers = linalg._PCG_MULT, []
        power, total = mult * mult % 2**128, (1 + mult + mult * mult) % 2**128
        for _ in range(5):
            powers.append((power, total))
            power, total = power * mult % 2**128, (total * mult + 1) % 2**128
        (p_hi, p_lo), (t_hi, t_lo) = linalg._jumps(5)
        assert [(int(a) << 64 | int(b), int(c) << 64 | int(d))
                for a, b, c, d in zip(p_hi, p_lo, t_hi, t_lo)] == powers


class TestMatrixFile:
    def test_round_trip_is_bit_exact(self, rng, tmp_path):
        arr = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        arr[0, 0] = math.pi + 1j / 3
        arr[1, 2] = 1e-300 - 1e300j
        arr[2, 3] = complex(-0.0, -0.0)  # JSON reads a bare "-0" as the integer 0
        path = tmp_path / "m.json"
        save_matrix(path, arr)
        back = load_matrix(path)
        assert back.tobytes() == arr.tobytes()

    def test_hermitian_round_trip(self, tmp_path):
        h = random_pd(3, (77,))[0]
        path = tmp_path / "h.json"
        save_matrix(path, h)
        back = load_hermitian(path)
        assert np.array_equal(back.array, h.array)

    def test_stack_of_several_is_refused(self, rng, tmp_path):
        stack = stack_of([random_hermitian(rng, 2) for _ in range(4)])
        with pytest.raises(InputError, match="expected one matrix, got a stack of 4"):
            save_matrix(tmp_path / "m.json", stack)

    def test_dump_format_fields(self):
        text = dump_matrix(np.eye(2))
        assert '"dim": 2' in text
        assert '"entries"' in text

    def test_parse_errors(self):
        with pytest.raises(InputError):
            parse_matrix("not json")
        with pytest.raises(InputError):
            parse_matrix('{"dim": 2, "entries": [[1, 0]]}')
        with pytest.raises(InputError):
            parse_matrix('{"dim": 1, "entries": [[1]]}')
        with pytest.raises(InputError):
            parse_matrix('{"entries": []}')
