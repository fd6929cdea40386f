"""hallfix: exact verification of Hall-subgroup fixed-point identities.

Small finite permutation groups are closed exhaustively, their Hall
pi-subgroups enumerated by backtracking, and the multiplicative / additive
Möbius-weighted fixed-point identities are checked with exact arithmetic
(factored rationals for products, big Fractions for sums) against a builtin
corpus with brute-force oracles.
"""

from .arith import FactoredRational, PiSet, divisors, moebius, totient
from .corpus import (CorpusEntry, UnknownGroupError, corpus_entries,
                     corpus_names, get_entry, load_group, load_scenario)
from .group import (CapExceededError, DEFAULT_ELEMENT_CAP, FiniteAction,
                    NotASubgroupError, PermGroup, centralizer, close, core_pi,
                    core_pi_complement, is_pi_separable, subgroups_of_order,
                    trivial_group)
from .groupio import GroupFileError, format_group_text, parse_group_text
from .hall import (CyclicLattice, HallContext, NoHallSubgroupError,
                   build_hall_context, cyclic_lattice, moebius_partition_check,
                   pi_part)
from .perm import (Permutation, PermParseError, format_permutation,
                   parse_permutation)
from .verify import (CharacterTable, CoprimeActionScenario, NrCheckResult,
                     SymCharSpec, WielandtResult, additive_value,
                     burnside_orbit_count, conjugation_character, curiosity_value,
                     cyclic_symmetrized_char, interpretation_check,
                     multiplicative_value, navarro_rizo_check,
                     power_product_pair, power_sum_bound_holds, power_subgroup,
                     symmetrized_char, wielandt_check)

__version__ = "0.1.0"
