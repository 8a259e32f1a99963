let shadowed = 7
