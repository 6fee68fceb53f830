"""The relay-API + analysis query service.

The paper *scraped* the relay data APIs to build its dataset; this package
turns the simulator's already-relay-API-shaped data into a server the same
collection code could scrape:

* :mod:`index` — slot-sorted permutation indexes over the relay data
  stores, built once per dataset, so cursor pagination is an O(log n)
  binary search plus an O(limit) slice;
* :mod:`schema` — the Flashbots data-API JSON shapes (snake_case field
  names, string-encoded integers, ``0x`` hex identifiers);
* :mod:`service` — transport-independent request handling (the unit the
  conformance and property suites drive);
* :mod:`http` — a stdlib-asyncio HTTP/1.1 front end with keep-alive,
  sized for thousands of concurrent load-generator clients;
* :mod:`workers` — a pre-forked ``SO_REUSEPORT`` worker pool sharing
  the dataset, indexes and wire-encoding blobs copy-on-write, with a
  supervising parent (crash restarts, graceful SIGTERM drain).

``python -m repro serve`` boots the service over the artifact cache
(mmap-warm columnar loads) or a freshly simulated world;
``--workers N`` scales it across cores.
"""
