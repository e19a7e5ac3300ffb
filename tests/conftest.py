import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from topareto import er, fem2d, pareto, simp

ACCEPTANCE_LINES: list[tuple[int, str]] = []


def record_criterion(num: int, ok: bool, detail: str) -> None:
    ACCEPTANCE_LINES.append((num, f"criterion {num:2d}: "
                             f"{'PASS' if ok else 'FAIL'}  {detail}"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for _, line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def desk_mbb():
    """The desk-scale half-MBB benchmark (60x20)."""
    return fem2d.preset("mbb")


@pytest.fixture(scope="session")
def small_mbb():
    return fem2d.preset("mbb", 30, 10)


@pytest.fixture(scope="session")
def tiny_mbb():
    return fem2d.preset("mbb", 8, 4)


@pytest.fixture
def cfg():
    return simp.OptimizerConfig()


@pytest.fixture
def table1_csv(tmp_path):
    """The four-alloy candidate table used by the worked selection example."""
    path = tmp_path / "materials.csv"
    path.write_text(
        "name,E_GPa,rho_kgm3\n"
        "Aluminum alloy (7475),70.8,2795\n"
        "Stainless steel (AISI 347),197,7915\n"
        "Titanium alloy (Ti-6Al-4V),116,4400\n"
        "Inconel 713,205,7900\n")
    return path


def kernel_solve(problem, values, penal):
    """Displacements from the production solve path, ``kernel_for(problem).solve``,
    for per-element densities under penalized SIMP moduli."""
    emod = fem2d.simp_modulus(values, penal)
    return fem2d.kernel_for(problem).solve(emod, problem.load_vector())


def read_er(text):
    """An ``er_raw.csv`` or ``er_filtered.csv`` text as ``(vfs, n)`` arrays,
    read back through the package's one table reader and cell parser."""
    rows = [(pareto.finite_cell(v, line), pareto.finite_cell(n, line))
            for line, (v, n) in pareto.read_table(text, er.ER_HEADER)]
    vfs, n = np.array(rows).reshape(-1, 2).T
    return vfs, n


def rel_err(a, b):
    return abs(a - b) / abs(b)


@pytest.fixture(scope="session")
def full_density_field():
    def make(problem):
        return fem2d.DensityField(np.ones(problem.grid.nel))
    return make
