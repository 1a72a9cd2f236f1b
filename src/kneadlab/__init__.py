"""kneadlab: symbolic, combinatorial and statistical invariants of unimodal
interval maps, with numerical verification suites for the exponent formula,
critical-orbit typicality, gap-regularized density regularity, and the
principal-nest Lyapunov formula."""

__version__ = "0.1.0"

from .errors import (ContainsCriticalSymbol, CriticalNonReturn,
                     DegenerateOrbit, DivergentInput, EmptyCylinder,
                     InsufficientOccurrences, IrreducibleRequired,
                     KneadlabError, NoOrbitPredicted, NonContraction,
                     NoReversingFixedPoint, NotSelfMap, OutOfDomain,
                     PrecisionExhausted, PrefixTooShort, TooManyGaps,
                     TooShallow)
from .maps import (OrbitSegment, UnimodalMap, derivative, evaluate,
                   iterate_orbit, make_custom, make_logistic, make_map,
                   make_quadratic, make_sine, seeded_start)
from .symbolic import (CylinderInterval, FrequencyEstimate,
                       GeometricFrequencyEstimate, SymbolStream, SymbolWord,
                       cylinder, frequency, geometric_frequency, itinerary,
                       kneading_sequence)
from .orbits import (EnumerationResult, PeriodicOrbit, ZetaTruncation,
                     enumerate_periodic, find_periodic,
                     formula_exponent_estimate, lyndon_words)
from .nest import (NestLevel, NestReport, build_nest,
                   find_restrictive_interval, nest_asymptotics, nest_lyapunov)
from .measure import (DensityEstimate, GapFamily, LyapunovEstimate,
                      RegularizedDensityReport, TypicalityTable,
                      estimate_density, gap_family, lyapunov_birkhoff,
                      regularized_density_report, verify_critical_typicality,
                      verify_lyapunov_equality)
from .harness import (ExperimentConfig, VerificationReport, run_verify, sweep)
