"""Exception taxonomy shared by the device model and both driver stacks.

Every error carries a stable symbolic ``code`` so reports and tests can match
on it without depending on exception identity.  The three hardware fault
classes double as interrupt sources: raised inside command-processor
execution they are caught and turned into status-page flags instead of
propagating to the caller.
"""

from __future__ import annotations


class DevmuxError(Exception):
    code = "EGENERIC"

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)


# -- device ------------------------------------------------------------

class RegFault(DevmuxError):
    """Access to an unknown register offset, or an invalid register value."""
    code = "REG_FAULT"


class HardwareFault(DevmuxError):
    """Base for faults the device reports through the interrupt path."""
    code = "HW_FAULT"
    flag = 0  # status-page pending_flags bit


class CmdFault(HardwareFault):
    code = "CMD_FAULT"
    flag = 0x2


class IommuFault(HardwareFault):
    code = "IOMMU_FAULT"
    flag = 0x4


class McFault(HardwareFault):
    code = "MC_FAULT"
    flag = 0x8


# -- platform ----------------------------------------------------------

class OutOfMemory(DevmuxError):
    code = "OUT_OF_MEMORY"


# -- isolation core ----------------------------------------------------

class OutOfVram(DevmuxError):
    code = "OUT_OF_VRAM"


class OutOfSegment(DevmuxError):
    code = "OUT_OF_SEGMENT"


class PermError(DevmuxError):
    code = "EPERM"


class InvalError(DevmuxError):
    code = "EINVAL"


class ExistsError(DevmuxError):
    code = "EEXIST"


class NotFoundError(DevmuxError):
    code = "ENOENT"


class BusyError(DevmuxError):
    code = "EBUSY"


class NotBoundError(DevmuxError):
    code = "ENOTBOUND"


class NotSupportedError(DevmuxError):
    code = "ENOTSUP"


# -- library driver ----------------------------------------------------

class BadHandle(DevmuxError):
    code = "EBADHANDLE"


class OutOfRange(DevmuxError):
    code = "ERANGE"


class OutOfPool(DevmuxError):
    code = "OUT_OF_POOL"


class BatchTooBig(DevmuxError):
    code = "EBATCHTOOBIG"


class DeviceFault(DevmuxError):
    """A fault flag was raised against the caller's work."""
    code = "DEVICE_FAULT"

    def __init__(self, flags: int, message: str = ""):
        self.flags = flags
        super().__init__(message or f"device fault, flags=0x{flags:x}")


# -- bench -------------------------------------------------------------

class VerifyFail(DevmuxError):
    code = "VERIFY_FAIL"
