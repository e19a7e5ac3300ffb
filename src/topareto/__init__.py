"""Compliance-volume Pareto fronts, efficiency-ratio analysis and
stiffness-driven material selection for 2D topology optimization."""

from .cache import RunCache
from .er import compute_er, filter_er, smooth
from .fem2d import DensityField, Grid, ProblemSpec, element_stiffness, preset
from .materials import (LoadCase, Material, SelectionReport, ashby_index,
                        load_materials, refine_vf, screen_density,
                        screen_pareto, select)
from .metamodel import (MetaModel, eval_front, fit, fit_problem,
                        full_density_compliance, inverse)
from .pareto import (FrontPoint, ParetoFront, SignificantPoints,
                     baseline_states, default_vf_grid, detect_significant,
                     envelope, multistart_states, refine_states)
from .simp import (INITIAL_DESIGN_KINDS, DesignResult, OptimizerConfig,
                   evaluate_p1, filter_build, initial_design, optimize)

__version__ = "0.1.0"

__all__ = [
    "DensityField", "DesignResult", "FrontPoint", "Grid",
    "INITIAL_DESIGN_KINDS", "LoadCase", "Material", "MetaModel",
    "OptimizerConfig", "ParetoFront", "ProblemSpec", "RunCache",
    "SelectionReport", "SignificantPoints", "ashby_index", "baseline_states",
    "compute_er", "default_vf_grid", "detect_significant", "element_stiffness",
    "envelope", "eval_front", "evaluate_p1", "filter_build", "filter_er",
    "fit", "fit_problem", "full_density_compliance", "initial_design",
    "inverse", "load_materials", "multistart_states", "optimize", "preset",
    "refine_states", "refine_vf", "screen_density", "screen_pareto", "select",
    "smooth",
]
