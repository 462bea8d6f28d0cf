"""Toolkit for (n,r)-arcs in PG(2,q): finite fields, projective planes,
matrix-group orbits, orbit condensation, a 0/1 branch-and-bound solver,
arc verification with a linear-code export, and cyclic-subgroup
classification with automorphism exclusion."""

__version__ = "0.1.0"

from .errors import BudgetExceededError, NotAdmittedError, ParseError
from .gf import Field, field_for_order, is_irreducible, parse_field_spec
from .geometry import Plane, build_plane, gaussian_number, incident
from .group import (
    Group,
    GroupElement,
    OrbitData,
    apply_to_line,
    apply_to_point,
    closure,
    conjugate_group,
    make_element,
    orbits,
    parse_group_file,
)
from .condense import (
    CondensedSystem,
    compress_arc,
    condense,
    expand_solution,
    format_system,
    parse_system,
)
from .solver import (
    IlpModel,
    Solution,
    exhaustive_oracle,
    greedy_warm_start,
    lp_bound,
    solve_feasible,
    solve_max,
)
from .arcs import (
    CORPUS,
    Arc,
    ArcReport,
    admits_group,
    load_corpus_arc,
    map_arc,
    min_distance,
    parse_arc_file,
    to_generator_matrix,
    verify_arc,
)
from .classify import (
    ConjClassRep,
    ExclusionReport,
    enumerate_cyclic_classes,
    gl3_class_representatives,
    run_exclusion,
    subgroup_class_count,
)
