"""Benchmarks for coherent-state transformation tasks on one bosonic mode.

The package answers three questions about a channel asked over a Gaussian
ensemble of coherent inputs: what average fidelity the best classical
measure-and-prepare strategy can reach, what a given channel actually
achieves (by exact Gaussian calculus or by truncated number-basis
simulation), and whether measured data certifies performance beyond the
classical bound.
"""

__version__ = "0.1.0"

from .bounds import (TaskSpec, classical_bound, quadrature_threshold,
                     quantum_amp_bound)
from .certify import (CertificationReport, DetectionReport, ExperimentDataset,
                      QuadratureRecord, certify_by_fidelity,
                      certify_by_fidelity_from_variance, certify_by_variance,
                      delta_bar, detect_gaussian_qd, estimate_gain,
                      read_dataset_csv, synthesize_dataset, write_dataset_csv)
from .ensembles import GaussianPrior, QuadratureRule, gauss_rule, sample
from .errors import (ConvergenceError, CutoffTooSmall, DatasetError,
                     DomainError, InvalidInput, NotCompletelyPositive,
                     ToolkitError, UnsupportedTask)
from .fock import (DisplacementMixture, FockAverage, FockOperator, FockVector,
                   KrausFamily, OffsetMap, average_fidelity_fock, coherent_ket,
                   gaussian_state_fock, thermal_state)
from .gaussian import (GaussianChannel, GaussianState,
                       average_fidelity_gaussian, apply_channel, compose,
                       fidelity_to_coherent, is_cp_channel, is_gain_matched,
                       is_physical_state)
from .schemes import (CanonicalB1, CanonicalC, ChannelForm, Compose,
                      HeterodyneMP, PureLoss, QuantumLimitedAmp, apply_mp_fock,
                      channel_form, fock_applier, model_from_json, model_to_json,
                      mp_average_fidelity, optimal_mp_gain, optimize_mp_gain,
                      phase_averaged_applier, to_gaussian)

__all__ = [name for name in dir() if not name.startswith("_")]
