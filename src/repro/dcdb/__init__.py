"""DCDB monitoring substrate.

This package is a from-scratch reimplementation of the parts of the DCDB
monitoring framework (Netti et al., SC 2019) that Wintermute builds on:

- :mod:`repro.dcdb.sensor` -- sensors and readings.
- :mod:`repro.dcdb.cache` -- per-sensor in-memory ring-buffer caches with
  O(1) relative and O(log N) absolute views.
- :mod:`repro.dcdb.mqtt` -- an in-process MQTT-style broker (topic tree,
  ``+``/``#`` wildcards) standing in for a networked MQTT server.
- :mod:`repro.dcdb.storage` -- an in-memory time-series storage backend
  standing in for Apache Cassandra.
- :mod:`repro.dcdb.pusher` -- the Pusher component: hosts monitoring
  plugins, samples sensors, publishes readings.
- :mod:`repro.dcdb.collectagent` -- the Collect Agent: subscribes to
  pusher traffic and persists it to the storage backend.
- :mod:`repro.dcdb.restapi` -- the RESTful control surface every DCDB
  component exposes.
- :mod:`repro.dcdb.plugins` -- monitoring plugins (tester, perfevent,
  sysfs, procfs, opa), driven by the cluster simulator.
"""

from repro.dcdb.sensor import Sensor, SensorReading
from repro.dcdb.cache import SensorCache, CacheView
from repro.dcdb.mqtt import Broker
from repro.dcdb.storage import StorageBackend
from repro.dcdb.pusher import Pusher
from repro.dcdb.collectagent import CollectAgent
from repro.dcdb.restapi import RestApi, RestRequest, RestResponse
from repro.dcdb.virtual import VirtualSensor, VirtualSensorRegistry

__all__ = [
    "VirtualSensor",
    "VirtualSensorRegistry",
    "Sensor",
    "SensorReading",
    "SensorCache",
    "CacheView",
    "Broker",
    "StorageBackend",
    "Pusher",
    "CollectAgent",
    "RestApi",
    "RestRequest",
    "RestResponse",
]
