"""Public-API surface checks: exports exist and are importable."""

import repro
import repro.sim as sim_pkg
import repro.stacks as stacks_pkg
from repro.apps.kvs import __all__ as kvs_all
from repro.rpc import __all__ as rpc_all
from repro.rpc.idl import __all__ as idl_all


def test_version():
    assert repro.__version__ == "1.0.0"


def test_top_level_exports():
    assert repro.Simulator
    assert repro.Machine
    assert repro.MachineConfig


def test_sim_exports_resolve():
    for name in sim_pkg.__all__:
        assert getattr(sim_pkg, name) is not None, name


def test_stacks_exports_resolve():
    for name in stacks_pkg.__all__:
        assert getattr(stacks_pkg, name) is not None, name


def test_rpc_exports_resolve():
    import repro.rpc as rpc_pkg

    for name in rpc_all:
        assert getattr(rpc_pkg, name) is not None, name


def test_idl_exports_resolve():
    import repro.rpc.idl as idl_pkg

    for name in idl_all:
        assert getattr(idl_pkg, name) is not None, name


def test_kvs_exports_resolve():
    import repro.apps.kvs as kvs_pkg

    for name in kvs_all:
        assert getattr(kvs_pkg, name) is not None, name


def test_hw_exports_resolve():
    import repro.hw as hw_pkg
    import repro.hw.nic as nic_pkg
    import repro.hw.interconnect as ic_pkg

    for pkg in (hw_pkg, nic_pkg, ic_pkg):
        for name in pkg.__all__:
            assert getattr(pkg, name) is not None, (pkg.__name__, name)


def test_public_classes_have_docstrings():
    from repro.hw.nic import DaggerNic
    from repro.rpc import RpcClient, RpcThreadedServer
    from repro.sim import Simulator
    from repro.stacks import DaggerStack

    for cls in (DaggerNic, RpcClient, RpcThreadedServer, Simulator,
                DaggerStack):
        assert cls.__doc__ and len(cls.__doc__.strip()) > 20, cls


def test_harness_obs_chaos_exports_resolve():
    import repro.chaos as chaos_pkg
    import repro.harness as harness_pkg
    import repro.obs as obs_pkg

    for pkg in (harness_pkg, obs_pkg, chaos_pkg):
        assert pkg.__all__, pkg.__name__
        for name in pkg.__all__:
            assert getattr(pkg, name) is not None, (pkg.__name__, name)
