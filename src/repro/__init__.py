"""repro — a full reproduction of *pgmcc: a TCP-friendly single-rate
multicast congestion control scheme* (Luigi Rizzo, SIGCOMM 2000).

Subpackages:

* :mod:`repro.core` — pgmcc itself: loss filter, packet-based RTT,
  window/token controller, ACK-bitmap tracking, acker election.
* :mod:`repro.simulator` — discrete-event network simulator (the
  ns-2/dummynet substitute): links, queues, routing, multicast.
* :mod:`repro.pgm` — the PGM protocol substrate: packet formats,
  sender/receiver, network elements.
* :mod:`repro.tcp` — the TCP Reno/NewReno baseline.
* :mod:`repro.analysis` — throughput/fairness metrics and series.
* :mod:`repro.experiments` — one runner per figure of the paper's §4,
  plus ablations.

Importing ``repro`` loads none of them: import the subpackage you use.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
