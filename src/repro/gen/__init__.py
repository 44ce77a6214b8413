"""Workload generators for experiments and property-based testing.

* :mod:`repro.gen.uunifast` -- the UUniFast / UUniFast-discard utilization
  samplers (Bini & Buttazzo), the standard unbiased way to draw task-set
  utilizations.
* :mod:`repro.gen.random_transactions` -- random transaction systems over
  random abstract platforms with controlled per-platform utilization.
* :mod:`repro.gen.random_components` -- random layered component
  assemblies (acyclic RPC topologies) exercising the Sec. 2.4 transform.
"""

from repro._lazy import lazy_exports

# ``uunifast`` is both a submodule and the function it defines, so that
# submodule loads now: importing it later would bind the module over the
# function.  The component generators and presets (which pull in
# repro.components) load on first access.
__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "uunifast": ("uunifast", "uunifast_discard"),
        "random_transactions": ("RandomSystemSpec", "random_system"),
        "random_components": ("RandomAssemblySpec", "random_assembly"),
        "presets": (
            "automotive_cluster",
            "avionics_partitions",
            "campaign_base",
            "deep_chain_spec",
            "independent_tasks_spec",
            "wide_view_spec",
        ),
    },
    eager=("uunifast",),
)
