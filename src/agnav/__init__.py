"""Aerial-ground semantic navigation: planning library and kinematic simulator.

The package is organized around one module per subsystem:

- ``gridmask``        pixel-grid geometry and image-to-world scaling
- ``spline``          B-spline curves used by the global planner
- ``global_planner``  collision-aware path optimization over control points
- ``local_planner``   semantically weighted direction selection for the ground robot
- ``semantic_map``    local/global semantic maps and deterministic fusion
- ``perception``      mock bird-view perceiver with calibrated noise
- ``sim_world``       ground-truth world state and stepped kinematics
- ``mission``         task decomposition, word assembly, leg planning, and orchestration
- ``scenario``        scenario file schema, validation, and the one mission run
- ``presets``         benchmark scenario builders (types A and B)
- ``plotting``        arena SVG plots of planned paths and driven tracks
- ``cli``             command-line entry points
"""

__version__ = "0.1.0"
