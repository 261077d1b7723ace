"""kadlab: finite-model toolkit for Kleene algebras with tests and with domain."""

from .algebra import (FiniteAlgebra, Profile, CheckReport, PhiResult,
                      Violation, check_axioms, check_phi, check_rules,
                      evaluate, hoare_rules, is_isomorphic, lemma4_model,
                      bool2_model, trivial_model, near_as_model)
from .errors import (BoundError, EvalError, KadlabError, MissingTableError,
                     ModelError, ParseError, SortError)
from .evsets import (EvPeriodicSet, NotAPrecondition, NotMaximal,
                     enumerate_candidates, evens, odds, finite_set,
                     cofinite_set, full_set, empty_set, in_test_algebra,
                     refute_wlp_candidate)
from .files import ProgramFile, dump_model, load_model, load_program_file
from .hoare import (Atom, Bindings, HoareTriple, If, PremiseError, Program,
                    Seq, Skip, While, denote, holds, parse_program,
                    parse_test_expr, synth_mid, vcgen, wlp)
from .relations import Rel, StateSpace, rel_algebra_model
from .search import find_models
from .terms import Sort, Term, desugar, parse_term, print_term, sort_of

__version__ = "0.1.0"
