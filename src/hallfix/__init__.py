"""hallfix: exact verification of Hall-subgroup fixed-point identities.

Small finite permutation groups are closed exhaustively, their Hall
pi-subgroups found as the conjugation orbits of joins of Sylow subgroups, and
the multiplicative / additive Möbius-weighted fixed-point identities are
checked with exact arithmetic (factored rationals for products, big
Fractions for sums) against a builtin corpus with brute-force oracles.
"""

from .arith import FactoredRational, PiSet, pi_part
from .corpus import (CorpusEntry, UnknownGroupError, corpus_entries,
                     corpus_names, get_entry, load_group)
from .group import (CapExceededError, DEFAULT_ELEMENT_CAP, FiniteAction, PermGroup,
                    centralizer_order, close, is_pi_separable, subgroups_of_order)
from .groupio import GroupFileError, parse_group_text
from .hall import HallContext, NoHallSubgroupError, build_hall_context, cyclic_lattice
from .perm import (Permutation, PermParseError, format_permutation,
                   parse_permutation)
from .verify import (CoprimeActionScenario, NoCoprimeSplitError, NrCheckResult, WielandtResult,
                     additive_value, coprime_split, curiosity_value, interpretation_check,
                     multiplicative_value, navarro_rizo_check, wielandt_check)

__version__ = "0.1.0"
