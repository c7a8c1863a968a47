"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes, so solver and construction code should
raise the most specific class that applies rather than bare ValueError.
"""


class ArgumentError(ValueError):
    """Malformed or out-of-range arguments (CLI exit code 2)."""


class PreconditionError(ArgumentError):
    """A documented precondition of an operation does not hold.

    Carries an optional machine-readable witness (e.g. the offending
    index pair) in ``witness``.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class DegenerateInputError(ArgumentError):
    """Input is singular/degenerate where a regular object was required."""


class ResourceLimitError(RuntimeError):
    """A size or bit-length cap would be exceeded (CLI exit code 3)."""


class BudgetExhaustedError(ResourceLimitError):
    """An enumeration budget ran out before a definite answer was reached.

    Verification commands map this onto the "inconclusive" exit code 4.
    """


# Resource caps.  Every cap is a fixed constant: no call or command-line
# option lifts one.  Constructions refuse to materialize point sets larger
# than MAX_POINTS, and tower() refuses to produce integers wider than
# MAX_BITS bits.  A point set whose common denominator has more than
# MAX_BITS bits cannot be scaled to integers (OrderedPointSet.scaled).
# Stepping up and `one_dim_k4_construction` (n >= 4) refuse, as a bound on
# output size, more than MAX_PAIRS point pairs (they read two per delta
# block); among them only the delta table of `verify_delta_properties`
# (N >= 11) visits every pair.  `longest_monotone_subsequence` (`solve
# monotone`) compares every pair of its values and refuses more than
# MAX_PAIRS pairs.  Exponents are compared before any power of two is formed.
# `verify stepup-consistency` refuses more than MAX_TUPLES tuples, exhaustive
# or as its --sample, `verify eps-deep` more than MAX_TUPLES perturbed reads
# (C(n, k) * (k * 2^d + samples) for n points in R^d),
# `verify_transitive_ramsey` more than MAX_TUPLES triples and `report
# transitive` more than MAX_TUPLES rows, each before the first is built;
# `verify milnor-thom` refuses --points above MAX_POINTS.
# Decoded polynomials of total degree above MAX_DEGREE are refused, because
# evaluating one raises its coordinates to that power; the constructions emit
# degree at most 6.  The geometry relations refuse to expand more
# than MAX_EXPANSION monomial products ((d+1)! for the order type in R^d,
# (d!)^2 for one-sidedness), so every accepted dimension builds in under a
# second.  `report tower` refuses to print an integer of more than
# MAX_DIGITS decimal digits, the interpreter's default int-to-str limit,
# so its output does not depend on the Python version or its settings.
# The deletion method (`spencer_independent_set`, `solve spencer`) gives up
# after MAX_ROUNDS seeded rounds without a certified independent set.
# An instance whose provenance nests more than MAX_PROVENANCE_DEPTH levels
# deep is refused, read or written, as malformed input (ArgumentError):
# `jsonable` and `json`'s codec recurse over it, a few frames per level.
# Stepping up nests it 1 level deeper, so every instance it writes reads
# back; the constructions nest 2.  A formula has no depth cap: it is a flat
# node list on disk (`jsonio.formula_to_json`).  `frankl_wilson_graph`
# counts its relation's literals before building any and refuses more
# than MAX_LITERALS: p = 3 has 250,944, p = 5 about 3.2 * 10^15.
MAX_POINTS = 2 ** 20
MAX_BITS = 10 ** 6
MAX_PAIRS = 10 ** 6
MAX_TUPLES = 10 ** 6
MAX_DEGREE = 1000
MAX_EXPANSION = 20_000
MAX_DIGITS = 4300
MAX_ROUNDS = 10 ** 4
MAX_PROVENANCE_DEPTH = 100
MAX_LITERALS = 10 ** 6
