"""Stabilizer-free weak Galerkin solver for the clamped fourth-order
parabolic problem u_t + lap^2 u = f on the unit square."""

from .assembly import (BoundaryData, BoundaryProjector, LoadAssembler,
                       SparseSym, assemble_mass_v0, assemble_stiffness)
from .checks import schur_validate
from .driver import SchemeConfig, ThetaStepper, TransientProblem
from .errors import (ErrorReport, ManufacturedSolution, compute_rates,
                     default_solution, evaluate_errors, l2_norm_v0, norm_2h,
                     triple_bar_norm)
from .fespace import DofMap, WeakFunction, build_dofmap, dim_pk
from .mesh import (Mesh, MeshError, build_quad_mesh,
                   build_uniform_triangle_mesh, read_mesh_file,
                   write_mesh_file)
from .weakcalc import interpolate, local_weak_laplacian, project_cell, project_edge

__version__ = "0.1.0"
