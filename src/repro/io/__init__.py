"""Serialization of transaction systems to/from plain dictionaries and JSON.

Systems survive a round trip exactly (up to float representation); platform
objects are serialized by mechanism so a loaded system analyzes *and*
simulates identically.
"""

from repro._lazy import lazy_exports

# The component-assembly schema (which pulls in repro.components) loads
# on first access.
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "spec": ("system_to_dict", "system_from_dict", "save_system",
             "load_system"),
    "components_spec": (
        "component_to_dict",
        "component_from_dict",
        "assembly_to_dict",
        "assembly_from_dict",
        "save_assembly",
        "load_assembly",
    ),
})
