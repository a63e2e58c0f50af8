"""Distributed smart-camera network substrate (paper refs [11], [13], [48]).

A time-stepped simulator of decentralised object tracking: cameras with
circular fields of view trade ownership of mobile objects in handover
auctions, and each camera chooses a *sociality strategy* (who to
advertise to, and when) -- either fixed at design time or learned at run
time by a self-aware controller.  Experiment E2 reproduces the "learning
to be different" result: self-aware cameras become heterogeneous and
improve the network-wide tracking/communication trade-off.
"""

from .controller import (CameraController, FixedStrategyController,
                         SelfAwareStrategyController, strategy_entropy)
from .market import AuctionOutcome, Bid, HandoverMarket
from .network import Camera, CameraNetwork
from .objects import MovingObject, ObjectPopulation
from .sim import CameraSimResult, CameraSimulation, CameraStepRecord
from .strategies import ALL_STRATEGIES, Strategy

__all__ = [
    "CameraController", "FixedStrategyController",
    "SelfAwareStrategyController", "strategy_entropy",
    "AuctionOutcome", "Bid", "HandoverMarket",
    "Camera", "CameraNetwork",
    "MovingObject", "ObjectPopulation",
    "CameraSimResult", "CameraSimulation", "CameraStepRecord",
    "ALL_STRATEGIES", "Strategy",
]
