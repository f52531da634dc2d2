"""Strong-coupling pairing model in its doubled thermal representation, the
collective fluctuations that survive the large-N limit, and the charge qubit
circuit they converge to."""

__version__ = "0.1.0"

from .circle import (ChargeBasisTruncation, CircuitParams, build_hamiltonian,
                     build_weyl, dyson_circle, dyson_defect, josephson_current,
                     phase_peaked_state, propagator, spectrum)
from .correlators import (ConvergenceResult, FluctuationWord, WordFactor,
                          convergence_sweep, correlation_finite_n,
                          mesoscopic_prediction, pair_expectation,
                          single_layer_evolution_element, w_expectation)
from .errors import (NormalPhaseError, NumericalError, ParameterError, ParityError,
                     QfluctError, SolverError, TruncationError)
from .fitting import PowerLawFit, fit_power_law
from .gap import (GapSolution, critical_current_curve, josephson_energy,
                  rescaled_gap, solve_gap)
from .junction import (JunctionParams, TransitionElement, circle_element,
                       dyson_junction, dyson_junction_defect, evolution_element,
                       layer_gaps, meso_compare)
from .sectors import (ModelParams, SectorTable, boltzmann_table, ladder_coefficient,
                      multiplicity)
