"""The systems under test (Table 4) plus the Kubernetes study subject.

Each subpackage is a miniature of the corresponding real system, built on
the cluster substrate, with the crash-recovery bugs of Tables 1 and 5
seeded at the sites the original JIRA issues describe.
"""

from repro.systems.base import RunReport, SystemUnderTest, Workload, run_workload


def all_systems():
    """The five systems of Table 4, in paper order (built lazily)."""
    from repro.systems.cassandra.system import CassandraSystem
    from repro.systems.hbase.system import HBaseSystem
    from repro.systems.hdfs.system import HdfsSystem
    from repro.systems.yarn.system import YarnSystem
    from repro.systems.zookeeper.system import ZooKeeperSystem

    return [
        YarnSystem(),
        HdfsSystem(),
        HBaseSystem(),
        ZooKeeperSystem(),
        CassandraSystem(),
    ]


def bundled_systems():
    """Every bundled system: Table 4's five, then Kubernetes."""
    from repro.systems.kube.system import KubeSystem

    return all_systems() + [KubeSystem()]


def get_system(name: str, world_scale: int = 1) -> SystemUnderTest:
    """Look one system up by its short name ("yarn", "hdfs", ...).

    ``world_scale`` requests a heavy-traffic world (DESIGN.md "Scale
    kernel"): more nodes, quadratically more jobs/rows.  Supported by
    yarn and hbase; other systems reject a scale above 1.
    """
    for system in bundled_systems():
        if system.name == name:
            if world_scale == 1:
                return system
            try:
                return type(system)(world_scale=world_scale)
            except TypeError:
                raise ValueError(
                    f"system {name!r} has no heavy-traffic generator "
                    f"(world_scale is supported by yarn and hbase)"
                ) from None
    raise KeyError(f"unknown system {name!r}")


__all__ = [
    "RunReport",
    "SystemUnderTest",
    "Workload",
    "all_systems",
    "bundled_systems",
    "get_system",
    "run_workload",
]
