"""Lipschitz extension on finite metric spaces with local-slope preservation."""

from .errors import (InstanceValidationError, LipextError, ParameterError,
                     ScheduleTooShallow)
from .metric import (MetricInstance, ball_lips, instance_from_arrays,
                     lip_constant, lipa_profile, validate_instance)
from .schedule import ScaleSchedule, build_schedule, locality_radius
from .extension import (ExtensionField, ProfileBank, build_profiles,
                        cutoff_support, extend, extend_localized, mcshane_upper_many,
                        schedule_for_instance, truncate_bounded)
from .verification import (CheckResult, VerificationReport, check_global_lipschitz,
                           check_inf_family, check_locality_preservation,
                           check_restriction, check_step2, mcshane_comparison,
                           run_suite)
from .energy import (EnergyReport, EnergySide, MeasureData,
                     check_extension_energy, check_restriction_monotonicity,
                     energy, validate_measure)

__version__ = "0.1.0"

__all__ = [
    "LipextError", "InstanceValidationError", "ParameterError",
    "ScheduleTooShallow",
    "MetricInstance", "validate_instance", "instance_from_arrays",
    "ball_lips", "lip_constant", "lipa_profile",
    "ScaleSchedule", "build_schedule", "locality_radius",
    "ProfileBank", "ExtensionField", "build_profiles", "extend",
    "extend_localized", "mcshane_upper_many",
    "truncate_bounded", "cutoff_support", "schedule_for_instance",
    "CheckResult", "VerificationReport", "check_restriction",
    "check_global_lipschitz", "check_step2", "check_locality_preservation",
    "check_inf_family", "mcshane_comparison", "run_suite",
    "MeasureData", "EnergySide", "EnergyReport", "validate_measure", "energy",
    "check_restriction_monotonicity", "check_extension_energy",
]
