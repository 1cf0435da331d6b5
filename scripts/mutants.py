"""Mutation score of ``jetbm verify``: which checks catch a one-token fault.

    python scripts/mutants.py

Each mutant in ``MUTANTS`` changes one operator, one index order or one
constant of one module under ``src/jetbm``.  For each, the script copies
``src/jetbm`` to a temporary directory, applies the mutant there (the
checkout is never edited) and runs

    jetbm verify --samples 300 --seed 1 [--config CONFIG]

on each configuration of ``CONFIGS``: the default (constant h_11, so
kappa = 0), the Berwald-Moor tensor under the exponential time metric with
lam = 1 and with lam = 0.5 (under lam = 1, h_11'' = lam^2 h_11 equals
lam h_11) and under the power time metric (kappa != 0), and the custom
tensors ``benchmarks/custom.ini`` and ``scripts/dense.ini``.  A mutant is
caught on a configuration when verify exits otherwise than on the unmutated
tree (a guard's exit 3, say) or when a check fails that passes on the
unmutated tree; the script prints those checks, and at the end each
configuration's score, caught of all mutants.
It uses the standard library only and runs one verify process at a time.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jetbm"
CONFIGS = {
    "default": None,
    "bm_exponential": ROOT / "scripts" / "bm_exponential.ini",
    "bm_exponential_half": ROOT / "scripts" / "bm_exponential_half.ini",
    "bm_power": ROOT / "scripts" / "bm_power.ini",
    "custom": ROOT / "benchmarks" / "custom.ini",
    "dense": ROOT / "scripts" / "dense.ini",
}
VERIFY = ("verify", "--samples", "300", "--seed", "1")

# (module under src/jetbm, old text, new text, label); each old text occurs
# exactly once in its module
MUTANTS = (
    (
        "geometry.py",
        "l = (kappa / 3.0)[:, None, None, None] * c",
        "l = (kappa / 2.0)[:, None, None, None] * c",
        "L = (kappa/2) C, not (kappa/3) C",
    ),
    (
        "geometry.py",
        "s_curv = np.subtract(cc.transpose(_LIKJ), cc.transpose(_LIJK))",
        "s_curv = np.subtract(cc.transpose(_LIJK), cc.transpose(_LIKJ))",
        "S with its sign flipped",
    ),
    ("geometry.py", "x += _contract(l, l)", "x -= _contract(l, l)", "R: -L.L, not +L.L"),
    ("geometry.py", "p_curv += _contract(c, c_mixed)", "p_curv -= _contract(c, c_mixed)", "P: -C.P^(m), not +"),
    (
        "geometry.py",
        '+ h11 * np.einsum("xpq,xpq->x", g_up, s_ricci)',
        '+ h11 * h11 * np.einsum("xpq,xpq->x", g_up, s_ricci)',
        "Sc: h_11^2 in place of h_11",
    ),
    ("geometry.py", "c = 0.5 * (g_up @ t3", "c = 0.5000001 * (g_up @ t3", "C scaled by 1 + 2e-7"),
    ("geometry.py", 'gk = 0.5 * np.einsum("xkm', 'gk = 0.25 * np.einsum("xkm', "G^k_j1 halved"),
    (
        "geometry.py",
        'r_ij = np.einsum("xmijm->xij", r_curv)',
        'r_ij = np.einsum("xmimj->xij", r_curv)',
        "R_ij contracted on R's other slot",
    ),
    (
        "closed.py",
        "return field_numerator(h11, kappa) / (2.0 * _einstein_k(k))",
        "return field_numerator(h11, kappa) / (3.0 * _einstein_k(k))",
        "xi_11 over 3K, not 2K",
    ),
    (
        "closed.py",
        "(18.0 * _sqrt_g1111(y)[:, None] * y)",
        "(9.0 * _sqrt_g1111(y)[:, None] * y)",
        "closed Ti over 9, not 18",
    ),
    ("closed.py", "return 9.0 * h11 + kappa * kappa", "return 9.0 * h11 + kappa * kappa / 3.0", "field Sc: kappa^2 / 3"),
    (
        "closed.py",
        "A = (2 * ij + 2 * ik + 2 * jk - 8 * ij * jk - 1) / 8.0",
        "A = (2 * ij + 2 * ik + 2 * jk - 8 * ij * jk - 2) / 8.0",
        "closed Cartan table: constant -2, not -1",
    ),
    (
        "closed.py",
        "(9.0 * ax.dh11 + 2.0 * ax.kappa * ax.dkappa)",
        "(9.0 * ax.dh11 + ax.kappa * ax.dkappa)",
        "d xi_11/dt: kappa kappa', not 2 kappa kappa'",
    ),
    (
        "fieldtheory.py",
        "t1 = dxi * inv_sq + geo.kappa * xi",
        "t1 = dxi * inv_sq - geo.kappa * xi",
        "T1: the kappa term's sign flipped",
    ),
    (
        "fieldtheory.py",
        "+ (h11 / k) * div_s + xi_c * d_inv_sq",
        "+ (1.0 / k) * div_s + xi_c * d_inv_sq",
        "Tyi: 1/K in place of h_11/K",
    ),
    (
        "fieldtheory.py",
        "mixed = (kappa / (3.0 * k)) * s_ric",
        "mixed = (kappa / (9.0 * k)) * s_ric",
        "mixed Einstein blocks: kappa/(9K), not kappa/(3K)",
    ),
    ("jetcore.py", "kappa = 0.5 * h_inv * dh", "kappa = 0.25 * h_inv * dh", "kappa = h'/(4h), not h'/(2h)"),
    ("jetcore.py", "d2h = self.lam * self.lam * h", "d2h = self.lam * h", "exponential h'' = lam h"),
    (
        "jetcore.py",
        "dkappa = 0.5 * d2h / h - 0.5 * pointwise_pow",
        "dkappa = 0.5 * d2h / h + 0.5 * pointwise_pow",
        "kappa': the square term's sign flipped",
    ),
    (
        "harness/checks.py",
        "prop.add(geo.r_curv, (geo.kappa**2 / 9.0)",
        "prop.add(geo.r_curv, (geo.kappa**2 / 3.0)",
        "check reference: R = (kappa^2/3) S",
    ),
    (
        "harness/checks.py",
        "((geo.dkappa - geo.kappa**2) / 3.0)",
        "((geo.dkappa + geo.kappa**2) / 3.0)",
        "check reference: R_time with +kappa^2",
    ),
)


def verify(package_parent: Path, config: Path | None) -> tuple[int, frozenset[str]]:
    """verify's exit code on the ``jetbm`` package under package_parent, and
    the checks that fail (none when verify did not write its document)."""
    argv = [sys.executable, "-m", "jetbm.harness.cli", *VERIFY]
    if config is not None:
        argv += ["--config", str(config)]
    env = {**os.environ, "PYTHONPATH": str(package_parent)}
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=600)
    if proc.returncode not in (0, 1):
        return proc.returncode, frozenset()
    reports = json.loads(proc.stdout)["reports"]
    return proc.returncode, frozenset(r["check_name"] for r in reports if not r["pass"] and not r.get("skipped"))


def mutate(package: Path, module: str, old: str, new: str):
    path = package / module
    text = path.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"mutants: {module} holds {text.count(old)} copies of {old!r}, not one")
    path.write_text(text.replace(old, new))


def outcome(base: tuple[int, frozenset[str]], got: tuple[int, frozenset[str]]) -> str | None:
    """What a mutant's run shows against the unmutated run, or None when it
    survives."""
    if got[0] != base[0]:
        return f"exit {got[0]}" + (f", newly failing: {', '.join(sorted(got[1] - base[1]))}" if got[1] - base[1] else "")
    if got[1] - base[1]:
        return f"{len(got[1] - base[1])} newly failing: {', '.join(sorted(got[1] - base[1]))}"
    return None


def main() -> int:
    base = {name: verify(PACKAGE.parent, config) for name, config in CONFIGS.items()}
    caught = dict.fromkeys(CONFIGS, 0)
    with tempfile.TemporaryDirectory() as tmp:
        for module, old, new, label in MUTANTS:
            package = Path(tmp) / "jetbm"
            shutil.rmtree(package, ignore_errors=True)
            shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
            mutate(package, module, old, new)
            print(f"{label}  ({module})")
            for name, config in CONFIGS.items():
                shown = outcome(base[name], verify(package.parent, config))
                caught[name] += shown is not None
                print(f"    {name:<20} {shown or 'survives'}")
            sys.stdout.flush()
    print(f"score, caught of {len(MUTANTS)} mutants:")
    for name, n in caught.items():
        print(f"    {name:<20} {n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
