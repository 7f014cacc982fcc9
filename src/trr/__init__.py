"""Transaction Remote Release: layered EC-ElGamal relay of transactions
through randomly selected nodes, with delayed release into the broadcast
network, plus simulation and analytics tooling."""
