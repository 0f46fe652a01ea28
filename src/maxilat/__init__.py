"""maxilat: finite posets, filter selections and way-above relations,
maxitive maps and their extensions, residuation, and the lattice of
maxitive maps, verified by exhaustive desk-scale enumeration."""

from .poset import (FinitePoset, OrderExtension, PosetError, PosetProfile,
                    classify, dm_completion, enumerate_posets,
                    enumerate_unlabeled_posets)
from .selections import (ContinuityReport, FilterSelection, SelectionError,
                         SelectionKind, WayAboveRelation, build_selection,
                         continuity_report, fmap, is_union_complete,
                         way_above)
from .maxitive import (IdealFamily, InvariantError, MapError, MonotoneMap,
                       RationalConeMap, alternating_witness, e_lower_star,
                       e_star, extend_lower_star, extend_star,
                       from_ideal_family, ideal_family_of,
                       is_pairwise_maxitive, iter_monotone_values,
                       maxitivity_witness)
from .residuation import (Adjoint, Theorem54Verdict, adjoint_of,
                          heyting_arrow, is_meet_continuous_over,
                          is_residuated, theorem_5_4)
from .mspace import (Generator, MaxMapSpace, build_space, generator_values,
                     m_arrow, pointwise_inf, reconstruction, representation)
from .harness import VerdictRecord, run_suite, summarize

__version__ = "0.1.0"
