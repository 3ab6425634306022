"""Simultaneous unsharp measurement of two complementary qubit observables.

Layers: `simulmeas.protocol` (the entangled-probe measurement scheme as
closed forms in the Bloch components x, y and the probe overlap c),
`simulmeas.experiment` (partial-polarizer digital twin with seeded
coincidence sampling) and `simulmeas.cli` (command-line front end, also
run by ``python -m simulmeas``). Import each from its submodule; this
package module loads none of them. `simulmeas.qmath` holds the
amplitude-level reference the tests check the closed forms against, and
the argument that no single von Neumann measurement can do the protocol's
job; no runtime module imports it.
"""

__version__ = "0.1.0"
