"""Root of every exception fleetroll raises for bad input or an impossible
request; the command line reports any of them as a one-line error."""


class FleetrollError(Exception):
    pass
