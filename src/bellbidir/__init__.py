"""Bidirectional imperfect teleportation over a single shared Bell pair.

A statevector simulator for the trigger-controlled protocol circuits, the
matching closed-form depolarizing channel models, and the information
measures of the resulting channels.
"""

__version__ = "0.1.0"
