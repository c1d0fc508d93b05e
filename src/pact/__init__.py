"""Partial group actions at finite scale.

A library plus CLI that computes globalizations (enveloping spaces),
twisted products, orbit spaces and fixed-point sets of partial actions of
finite groups on finite Alexandrov spaces, and mechanically checks the
structural propositions about them on concrete instances.
"""
from .algebra import (Group, Subgroup, all_subgroups, conjugate_subgroup,
                      subgroup_generated, validate_group)
from .bounds import DEFAULT_BOUNDS, Bounds
from .envelope import (EnvelopeResult, adjunction_maps, envelope_of_map,
                       fixed_decomposition, globalize,
                       iterated_twist_comparison, product_comparison,
                       recognize_globalization, trivial_collapse,
                       twisted_product)
from .errors import (BoundExceeded, InstanceError, InternalCheckError,
                     PactError, ValidationError)
from .finspace import (FinSpace, SpaceMap, discrete_space,
                       enumerate_monotone_maps, enumerate_opens, is_closed,
                       is_continuous, is_open, is_open_map, is_T1,
                       pair_label, product, quotient, space_from_min_opens,
                       split_pair_label, subspace, t0_quotient)
from .fixtures import FIXTURES, fixture_dict, fixture_names, load_fixture
from .homotopy import (GContract, MapPoset, core, enumerate_maps,
                       is_G_contractible, is_locally_G_contractible)
from .instance import Instance, parse_instance
from .paction import (OrbitSpace, PartialAction, diagonal_product,
                      enumerate_G_maps, fixed_points, global_action,
                      is_G_map, is_invariant, is_isovariant,
                      orbit_classes, orbit_space, restrict_global,
                      restrict_invariant, restrict_to_subgroup,
                      trivial_action, validate_partial_action)
from .report import (FAILS, HOLDS, INTERNAL_ERROR, PRECONDITION_UNMET,
                     SKIPPED_BOUNDS, ClaimReport)
from .verify import (claim_ids, exit_code, replay_witness, run_all,
                     run_claim, split_diagonal_factors)

__version__ = "0.1.0"
