"""Convex variational time stepping for nonlinear parabolic flows with
dynamic (Wentzell) boundary flux.

Each implicit step minimizes a strictly convex functional built from the
flux potential; multivalued flux laws are handled through their smooth
envelope with a continuation in the regularization parameter, and the
recovered flux sections are certified by per-cell Fenchel gaps.
"""

__version__ = "0.1.0"

from .discretization import (Grid, build_grid, gradient, integrate_boundary,
                             integrate_domain, interval_grid, rectangle_grid,
                             time_average, trace)
from .flux_models import (FluxModel, Growth, GrowthReport, RootNotConverged,
                          SampleSpec, UnboundedConjugate,
                          anisotropic_p_laplacian, conjugate, custom_model,
                          fenchel_gap, flux_select, fractured_medium,
                          growth_check, log_growth, make_model, moreau,
                          potential, quadratic, resolvent, total_variation,
                          yosida_flux)
from .step_solver import (StepConfig, StepNonConverged, StepSolution,
                          regularized_objective, solve_step,
                          solve_step_obstacle, step_objective, tv_step)
from .flow_driver import (AsymptoticsReport, ContractionReport,
                          ConvergenceTable, DiagnosticsRecord, EnergyReport,
                          IncompatibleData, Inapplicable, ProblemData,
                          Trajectory, asymptotics_check, contraction_check,
                          convergence_study, energy_trace, run_flow,
                          stability_report, steady_state, total_mass)

__all__ = [name for name in dir() if not name.startswith("_")]
