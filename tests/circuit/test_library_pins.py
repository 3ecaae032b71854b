"""Pinned digests of every synthetic library circuit and its fault universe.

The generator and the fault collapser are pure functions of their inputs,
and every published table is computed from their output, so any change to
either must reproduce these digests exactly.  Each library profile is
generated at full scale with seed 0 (what ``get_circuit(name)`` returns);
the netlist digest covers inputs, outputs and every gate in insertion
order, and the fault digest covers the collapsed list in order.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.circuit.generate import generate_circuit
from repro.circuit.library import PROFILES
from repro.sim.faults import collapse_faults

#: name -> (netlist sha256, collapsed-universe length, fault-list sha256).
PINS = {
    "s1196": ("c1fb70ca8042156df6e2aaf6df9299e531ac83421ec511e596c2aec403094d01", 2316,
              "b24a193d508bb622c7bc7b6535c73dec48a96be4b15a8b63ad5f8904cd44ca95"),
    "s13207": ("fc37a005f77321ddcd871ac67878faf741c157aed9ce9050777ae3961527ea29", 34055,
              "8278c94883e148e1e22b24042213de19ccadc27a3f97afa41b7cdd34b8375847"),
    "s1423": ("9d2c4ec120ca948f174f1b3b113d474c7920463d9600418b63c4c5c8c4aba36d", 2872,
              "01fe3c2190f2101f31546eccdf99f9a9b66766dfc9bae9ceb76c7951b2c92773"),
    "s15850": ("c71d0b5537ef4b88193a5819054ddc49558686652252243f597f82cc1b0df3f7", 41393,
              "314d7649d4002bad2eab73956e6b5db8810156c5081d8e09cc797d33caeadf7c"),
    "s298": ("d23e4ea36e3f432c22fb18a54955736adaa92d2314eda2ea54958f10f212d05b", 532,
              "4ecf7f9c71cf7c055447ec354d8899d990fe13819f5ed7c5be0ead2addfab115"),
    "s344": ("9531ceb8bac2ed5cd3bd8d2115f8ac76aa3b7c6924eac09f7d4a51e99ebcf49b", 703,
              "b6beb91d7b89e7a0b9d423c19d107d42dabe08e4dc93507879462f051178c259"),
    "s35932": ("fb384d119307028950a72972ad0391bfa212267b57e7ce43edd7bb13269d99b3", 68007,
              "48993bc31217147bc8faa688e3042f1219c84c526b913bd40d66f1c2fef4b969"),
    "s382": ("8059a3771428ad804d2325995bda53fb2bcc77e4be0daf055616844a199d486a", 660,
              "e50cf6f4bfbd5eb8e37779f57226841b7a6b015f74cf85228692e1e9e61f2198"),
    "s38417": ("9869bc66525835535cf1591db9c56a8f068ab2a90487a71e89244f9338ceb150", 94526,
              "ab4cca51244aa3514c882df2df4aae88a737a9e227d650f4f6c3a73193c08ac1"),
    "s38584": ("b2f788e3f82574956f94875d387b2d0fc928969bab35ecc0d544b1cbeafdb472", 82324,
              "09d04de2062c7fc6922eff4b72f434f9d90de80a4d43d9d883c5b543b33f41eb"),
    "s400": ("9c03305a6958fd86926ab6f5ef9222fe23c90cae51ddb356e737ebf095dc625a", 689,
              "afad242bbee145a8b6c26db17edb0501895c7abaa9d03df481872a2a32c3bce2"),
    "s420": ("812ae65246621b2d8180fad928ed39addef3d17f96479be6540b8852b8442039", 914,
              "6e9fc03fe55aca91a9b6e0939f731c86d41c8ea1988a1f68f8502024f1854f86"),
    "s526": ("f28ce37817fb8a838c7960bdfb116f4b9a8b0580ef2f05a6fef782dbd9fed18a", 816,
              "fef3ec02c9e7a46f86545ccb3bf79e2931c2ec6b8772189bfd8d58e6b1087c5c"),
    "s5378": ("2a7689e26f11cd84aaca3abe1a72580ecbed377e7965d54c63b11e1a168fa2ae", 11883,
              "904fa19f7604a4c081f94722a77c499be7ec6fcbdb987c95e918e285d6b8b3aa"),
    "s641": ("f2a1d0e63bb7b7a5d8d0ed53ef040182794f8bf5c53448c822e64541bd847b7d", 1644,
              "1f784af7d20e7758ba0c0ee40af89149ea663a33e8cb5d4efba3e590304efe7a"),
    "s713": ("7aacb49648228d4dc4e4cac275c290c63230b2625d6070acb5b3b51410e9e76a", 1775,
              "6b761208ff10375777fdbb3a1e72a2bc63c22cd225a1cd3fa6dfb003fa102960"),
    "s820": ("91c915cc9cd02571a327228c71a4218d4b49924a7e4f47f257c359cdcbce5a6c", 1315,
              "45fe2fc9745afdab6aa81d069bdf99f8cab5a3f10493b269326c69c55c64c62a"),
    "s838": ("94d479324b741610e3c1a1234e461d4692b84ca28e0b273590d8b7ef8ef86430", 2011,
              "065b72c47a30dda9f32ef133cee4ed7ad5aee608b5a7462c16f56e1c8278d941"),
    "s9234": ("0c591c15ab30d8d1b40e4a37c2721b3acf7f1922f4cb40e1638e07a1698f47c5", 23888,
              "9b12690464eaa36563d0ee5e6e4af96218736493223877555e7d0aa3e66db615"),
    "s953": ("0326c098f17e698b40e77f8665380a7c82806407306c492146ee793e3330c236", 1684,
              "fbdc354a9c03d155445500fbff29f2ed9afab56d02f340af3c2b8b9706cf65e5"),
}


def netlist_text(netlist) -> str:
    lines = [f"INPUT {net}" for net in netlist.inputs]
    lines += [f"OUTPUT {net}" for net in netlist.outputs]
    lines += [
        f"{gate.output} = {gate.gtype.value}({','.join(gate.fanins)})"
        for gate in netlist.gates.values()
    ]
    return "\n".join(lines)


def faults_text(faults) -> str:
    return "\n".join(
        f"{f.net} {f.stuck_at}" + ("" if f.pin is None else f" {f.pin[0]} {f.pin[1]}")
        for f in faults
    )


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_library_circuit_pinned(name):
    netlist = generate_circuit(PROFILES[name], seed=0)
    faults = collapse_faults(netlist)
    assert (sha256(netlist_text(netlist)), len(faults),
            sha256(faults_text(faults))) == PINS[name]
