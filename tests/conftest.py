"""The suite runs BLAS under the CLI's thread policy, so that the outputs it
pins are the ones the CLI prints: importing ``stateiso.cli`` before anything
imports numpy sets the thread count to one unless the environment names one."""
import stateiso.cli  # noqa: F401
