"""Physical-layer models: interface electrics, CACTI-IO energy, bus simulator.

The interface-model protocol
----------------------------
Every electrical standard is modelled behind one structural protocol,
:class:`~repro.phy.interface.Interface` — termination currents
(``dc_current(level)``), signal swing (``v_swing``), and per-event
energies (``energy_per_zero`` / ``energy_per_one`` / ``energy_per_transition``).
Three families implement it:

* :class:`~repro.phy.pod.PodInterface` — VDDQ-terminated (GDDR5/GDDR5X,
  DDR4-POD12): zeros burn DC power, ``costly_level == "zero"``;
* :class:`~repro.phy.sstl.SstlInterface` — mid-rail-terminated (DDR3):
  both levels burn the same DC power, ``costly_level == "both"``;
* :class:`~repro.phy.lvstl.LvstlInterface` — ground-terminated
  (LPDDR4-LVSTL): ones burn DC power, ``costly_level == "one"``.

:class:`~repro.phy.power.InterfaceEnergyModel` constructs from any of
them, so every figure, table and controller replay can run at any
operating point on any standard; named presets (``pod135``, ``pod12``,
``sstl15``, ``lvstl11``, ...) are resolved with
:func:`~repro.phy.interface.get_interface` and listed in
:data:`~repro.phy.interface.INTERFACES`.  The model's
:meth:`~repro.phy.power.InterfaceEnergyModel.cost_model` bridge prices
the DC weight *differentially* (``E_zero − E_one``, clamped at 0), which
is what the streaming encoders of :mod:`repro.ctrl` optimise.

Simulation backends
-------------------
Like :mod:`repro.hw`, the statistics layer runs on two interchangeable
engines with bit-identical results:

* **scalar** — :meth:`~repro.phy.lane.LaneGroup.drive_words` clocks one
  :meth:`~repro.phy.lane.Lane.drive` per wire per beat, and
  :class:`~repro.phy.bus.MemoryBus` on ``backend="reference"`` encodes
  one burst at a time.  Always available; the differential reference.
* **word-parallel** — :meth:`~repro.phy.lane.LaneGroup.drive_words_batch`
  packs each wire's beat stream into one Python-int bit plane and
  tallies zero-beats/transitions with the popcounts of
  :mod:`repro.hw.bitsim` (with or without NumPy), and :class:`MemoryBus`
  on the ``vector`` backend encodes each lane's whole burst train
  through :meth:`~repro.core.schemes.DbiScheme.batch_flags` with state
  threaded across bursts.

``backend=None`` defers to ``REPRO_BACKEND``/auto exactly like the
encode path (:func:`repro.core.vectorized.resolve_backend`); the paired
scalar/batched tests in ``tests/phy`` enforce identity between the
engines.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "bus": ("BusStatistics", "ByteLane", "MemoryBus"),
    "devices": ("DeviceProfile", "PROFILES", "ddr4", "gddr5", "gddr5x",
                "get_profile"),
    "interface": ("COSTLY_LEVELS", "INTERFACES", "Interface",
                  "available_interfaces", "get_interface"),
    "lane": ("Lane", "LaneGroup"),
    "lvstl": ("LvstlInterface", "lvstl11"),
    "pod": ("PodInterface", "pod12", "pod135", "pod15"),
    "power": ("GBPS", "InterfaceEnergyModel", "PICOFARAD", "PICOJOULE",
              "crossover_data_rate"),
    "sstl": ("SstlInterface", "sstl135", "sstl15"),
})
