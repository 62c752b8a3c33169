"""Federated identities and cross-institutional trust.

Each institution runs a :class:`FederatedIdentityProvider` (IdP) that
issues credentials for its members.  A :class:`TrustFabric` records which
IdPs trust each other, so a token minted at ORNL can be honoured at ANL —
"federated identity management" from §3.4's research priorities.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.security.tokens import Token

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator


@dataclass(frozen=True)
class Identity:
    """A principal: a human scientist, an agent, or a service.

    Attributes
    ----------
    subject:
        Unique principal name, e.g. ``"planner-agent@ornl"``.
    institution:
        Home institution (determines the issuing IdP).
    attributes:
        ABAC attributes, e.g. ``(("role", "agent"), ("clearance", 2))``.
    """

    subject: str
    institution: str
    attributes: tuple[tuple[str, Any], ...] = ()

    def attr(self, key: str, default: Any = None) -> Any:
        for k, v in self.attributes:
            if k == key:
                return v
        return default

    @staticmethod
    def make(subject: str, institution: str, **attributes: Any) -> "Identity":
        return Identity(subject=subject, institution=institution,
                        attributes=tuple(sorted(attributes.items())))


class FederatedIdentityProvider:
    """An institution's token issuer.

    The signing key is private to the IdP; tokens are MAC'd with it, so
    only an IdP holding the same key can validate (or mint) its tokens.
    """

    def __init__(self, sim: "Simulator", institution: str,
                 secret: Optional[bytes] = None,
                 default_ttl_s: float = 300.0) -> None:
        self.sim = sim
        self.institution = institution
        self._secret = secret or hashlib.blake2b(
            f"idp:{institution}".encode(), digest_size=16).digest()
        self.default_ttl_s = default_ttl_s
        self._identities: dict[str, Identity] = {}
        self._revoked: set[str] = set()
        self.stats = {"issued": 0, "validated": 0, "rejected": 0}

    # -- enrolment ------------------------------------------------------------

    def enroll(self, identity: Identity) -> Identity:
        if identity.institution != self.institution:
            raise ValueError(
                f"{identity.subject} belongs to {identity.institution}, "
                f"not {self.institution}")
        self._identities[identity.subject] = identity
        return identity

    def known(self, subject: str) -> bool:
        return subject in self._identities

    # -- token lifecycle ---------------------------------------------------------

    def issue(self, subject: str, scopes: tuple[str, ...] = ("*",),
              ttl_s: Optional[float] = None) -> Token:
        """Mint a short-lived token for an enrolled principal."""
        identity = self._identities.get(subject)
        if identity is None:
            raise KeyError(f"{subject!r} is not enrolled at {self.institution}")
        token = Token.mint(
            secret=self._secret, subject=subject, issuer=self.institution,
            scopes=scopes, attributes=dict(identity.attributes),
            issued_at=self.sim.now,
            expires_at=self.sim.now + (ttl_s or self.default_ttl_s),
            ids=self.sim.ids)
        self.stats["issued"] += 1
        return token

    def revoke(self, token: Token) -> None:
        """Invalidate a specific token before its natural expiry."""
        self._revoked.add(token.token_id)

    def revoke_subject(self, subject: str) -> None:
        """Remove a principal entirely; future validations fail."""
        self._identities.pop(subject, None)
        self._revoked.add(f"subject:{subject}")

    def validate(self, token: Token) -> bool:
        """Check signature, expiry, and revocation at the current sim time."""
        self.stats["validated"] += 1
        ok = (token.verify(self._secret)
              and token.issuer == self.institution
              and token.expires_at > self.sim.now
              and token.token_id not in self._revoked
              and f"subject:{token.subject}" not in self._revoked)
        if not ok:
            self.stats["rejected"] += 1
        return ok


class TrustFabric:
    """Which institutions honour each other's credentials.

    Trust is directional: ``trust(a, b)`` means *a accepts tokens issued
    by b*.  The federation helper :meth:`federate` makes a clique.
    """

    def __init__(self) -> None:
        self._providers: dict[str, FederatedIdentityProvider] = {}
        self._trusts: set[tuple[str, str]] = set()

    def add_provider(self, idp: FederatedIdentityProvider) -> FederatedIdentityProvider:
        self._providers[idp.institution] = idp
        self._trusts.add((idp.institution, idp.institution))
        return idp

    def provider(self, institution: str) -> FederatedIdentityProvider:
        return self._providers[institution]

    def trust(self, truster: str, issuer: str) -> None:
        if truster not in self._providers or issuer not in self._providers:
            raise KeyError("both institutions must have providers")
        self._trusts.add((truster, issuer))

    def distrust(self, truster: str, issuer: str) -> None:
        if truster != issuer:
            self._trusts.discard((truster, issuer))

    def trusts(self, truster: str, issuer: str) -> bool:
        return (truster, issuer) in self._trusts

    def federate(self, institutions: Optional[list[str]] = None) -> None:
        """Establish mutual trust among ``institutions`` (default: all)."""
        insts = institutions or list(self._providers)
        for a in insts:
            for b in insts:
                self._trusts.add((a, b))

    def validate_at(self, institution: str, token: Token) -> bool:
        """Would ``institution`` accept this token?

        Requires (1) the local domain to trust the issuer and (2) the
        issuer's own IdP to vouch for the token.
        """
        if not self.trusts(institution, token.issuer):
            return False
        issuer_idp = self._providers.get(token.issuer)
        if issuer_idp is None:
            return False
        return issuer_idp.validate(token)
