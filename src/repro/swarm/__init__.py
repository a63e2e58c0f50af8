"""Collective-robotics swarm substrate (paper ref [34]).

A swarm keeps an arena covered so that events are witnessed; hotspots
shift and robots die mid-mission.  The self-aware controller recognises
these situations from local knowledge (witnessed events, gossiped
beliefs, silent peers) and intentionally re-forms the swarm's structure;
baselines hold a design-time formation or patrol at random.
Experiment E12.
"""

from .arena import Arena, Event, Hotspot
from .robots import (RandomPatrol, Robot, SelfAwareSwarm, StaticFormation,
                     SwarmController, make_swarm)
from .sim import SwarmMission, SwarmRunResult, SwarmStepRecord
from .soa import EventTable, IndexMemory, RobotArrays

__all__ = [
    "Arena", "Event", "Hotspot",
    "EventTable", "IndexMemory", "RobotArrays",
    "RandomPatrol", "Robot", "SelfAwareSwarm", "StaticFormation",
    "SwarmController", "make_swarm",
    "SwarmMission", "SwarmRunResult", "SwarmStepRecord",
]
